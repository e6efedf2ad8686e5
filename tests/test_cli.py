"""Command line runner: exit codes, artifact shapes, determinism."""

import csv
import json
from fractions import Fraction
from pathlib import Path

import pytest

from heckepairs import cli
from heckepairs.cli import (
    element_from_json,
    element_to_json,
    load_element,
    run,
)
from heckepairs import (
    AxbElement,
    DihedralElement,
    HeckeElement,
    IntegerElement,
    MatrixElement,
    QQi,
    SemidirectElement,
    build_pair,
)


def write_ini(path, section, **values):
    lines = ["[%s]" % section]
    for k, v in values.items():
        lines.append("%s = %s" % (k, v))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestElementCodec:
    def test_round_trip_all_backends(self):
        # one sample per element class; the negate pair checks that the
        # semidirect action comes from the pair, not from the key
        samples = {
            "dihedral": HeckeElement.delta(
                build_pair("dihedral"), DihedralElement(2, -1), coeff=QQi(Fraction(1, 3), 2)
            ),
            "finite_index": HeckeElement.delta(
                build_pair("finite_index"), IntegerElement(1)
            ),
            "bost_connes": HeckeElement.delta(
                build_pair("bost_connes"), AxbElement(Fraction(3, 2), Fraction(-1, 4))
            ),
            "gl2q": HeckeElement.delta(
                build_pair("gl2q"), MatrixElement(((1, 1), (0, 2)))
            ),
            "semidirect": HeckeElement.delta(
                build_pair("semidirect"), SemidirectElement((2, -3), 1, "swap")
            ),
            "semidirect-negate": HeckeElement.delta(
                build_pair("semidirect", {"action": "negate"}),
                SemidirectElement((2, -3), 1, "negate"),
            ),
        }
        for name, f in samples.items():
            data = element_to_json(f)
            back = element_from_json(f.pair, data, mode="exact")
            assert back.sorted_terms() == f.sorted_terms(), name

    def test_exact_coefficients_survive_as_strings(self, dihedral):
        f = HeckeElement.delta(
            dihedral, DihedralElement(1, 1), coeff=QQi(Fraction(2, 7), Fraction(-1, 3))
        )
        data = element_to_json(f)
        assert data["terms"][0]["re"] == "2/7"
        assert data["terms"][0]["im"] == "-1/3"

    def test_delta_shorthand(self, dihedral):
        f = load_element(dihedral, "delta:3,-1", mode="exact", kind="double")
        assert f.sorted_terms() == HeckeElement.delta(
            dihedral, DihedralElement(3, -1)
        ).sorted_terms()

    def test_inline_json_spec(self, dihedral):
        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=QQi(0, 1)) \
            + HeckeElement.delta(dihedral, DihedralElement(0, 1), coeff=2)
        spec = json.dumps(element_to_json(f))
        back = load_element(dihedral, spec, mode="exact", kind="double")
        assert back.sorted_terms() == f.sorted_terms()

    def test_semidirect_key_of_wrong_rank_rejected(self, semidirect):
        from heckepairs import ConfigError

        with pytest.raises(ConfigError, match="coordinates"):
            load_element(semidirect, "delta:1,0", mode="exact", kind="double")

    @pytest.mark.parametrize("name, spec", [
        ("dihedral", "delta:3,1,7"),
        ("finite_index", "delta:1,2"),
        ("bost_connes", "delta:3/2,0,9"),
        ("semidirect", '{"terms": [{"key": [[1, 2], 0, 5]}]}'),
        ("gl2q", "delta:1,0,0,0,1,0,0,0,1"),  # was read as a 2x2 double coset
    ])
    def test_surplus_key_components_rejected(self, pairs, name, spec):
        from heckepairs import ConfigError

        with pytest.raises(ConfigError, match="components"):
            load_element(pairs[name], spec, mode="exact", kind="double")

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", [
        "inf", "nan", "1e400", json.loads("Infinity"), "1" + "0" * 400 + "/1",
    ], ids=["inf", "nan", "1e400", "json-Infinity", "401-digit-fraction"])
    def test_float_mode_refuses_non_finite_parts(self, dihedral, part, value):
        # "inf", "nan", "1e400" and a JSON Infinity used to load as non-finite
        # coefficients, while the 401-digit fraction overflowed
        from heckepairs import ConfigError

        data = {"terms": [{"key": [1, 1], part: value}]}
        with pytest.raises(ConfigError, match="not a finite float"):
            element_from_json(dihedral, data, mode="float")

    def test_exact_mode_reads_fractions_past_the_float_range(self, dihedral):
        big = "1" + "0" * 400 + "/1"
        f = element_from_json(dihedral, {"terms": [{"key": [1, 1], "re": big}]},
                              mode="exact")
        assert f.sorted_terms() == HeckeElement.delta(
            dihedral, DihedralElement(1, 1), coeff=10 ** 400).sorted_terms()

    def test_wrong_pair_rejected(self, dihedral, finite_index):
        from heckepairs import ConfigError, IntegerElement

        data = element_to_json(HeckeElement.delta(finite_index, IntegerElement(1)))
        with pytest.raises(ConfigError):
            element_from_json(dihedral, data, mode="exact")


class TestExitCodes:
    def test_pairs_runs_without_config(self, tmp_path, capsys):
        code = run("pairs", out=str(tmp_path))
        assert code == 0
        assert (tmp_path / "pairs.json").exists()
        payload = json.loads((tmp_path / "pairs.json").read_text())
        assert len(payload["pairs"]) >= 6

    def test_missing_config_file_fails(self, tmp_path, capsys):
        code = run("enumerate", config=str(tmp_path / "nope.ini"), out=str(tmp_path))
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["status"] == "failure"

    def test_missing_pair_key_fails(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "enumerate", radius="3")
        code = run("enumerate", config=ini, out=str(tmp_path))
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert payload["command"] == "enumerate"

    def test_bad_radii_fail_with_machine_readable_json(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "rd-scan", pair="dihedral", radii="4,4,8", samples="5"
        )
        code = run("rd-scan", config=ini, seed=1, out=str(tmp_path))
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "strictly increasing" in payload["message"]

    def test_scan_without_seed_fails(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "rd-scan", pair="dihedral", radii="2,4", samples="5"
        )
        code = run("rd-scan", config=ini, out=str(tmp_path))
        assert code == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "seed" in payload["message"]

    def test_pair_without_length_fails_with_json(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "jolissaint", pair="bost_connes",
                        f="delta:3/2,0")
        assert run("jolissaint", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "has no length" in payload["message"]

    def test_exhausted_budget_fails_with_json(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "degrees", pair="dihedral", radius="3",
                        budget="1")
        assert run("degrees", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "budget 1" in payload["message"]

    def test_semidirect_key_of_wrong_rank_exits_two(self, tmp_path, capsys):
        # a rank-1 key on the rank-2 pair used to convolve as a truncated vector
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="semidirect",
                        left="delta:1,0", right="delta:1,2,0")
        assert run("convolve", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "bad element key" in payload["message"]

    def test_surplus_key_components_exit_two(self, tmp_path, capsys):
        # used to load delta(3, 1) and drop the 7
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="dihedral",
                        left="delta:3,1,7", right="delta:1,1")
        assert run("convolve", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "bad element key" in payload["message"]

    def test_non_numeric_tol_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "normest", pair="dihedral",
                        f="delta:1,1", radii="2", tol="abc")
        assert run("normest", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "tol" in payload["message"]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # nan, -1 and 0 used to run every solve to its step cap, and inf
        # accepted the first cycle whatever its residual
        ini = write_ini(tmp_path / "c.ini", "normest", pair="dihedral",
                        f="delta:1,1", radii="2", tol=tol)
        assert run("normest", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "finite tol > 0" in payload["message"]

    @pytest.mark.parametrize("command, key", [
        ("rd-scan", "radii"), ("rd-scan", "operator_radii"), ("normest", "radii"),
    ])
    def test_negative_radius_exits_two(self, tmp_path, capsys, command, key):
        # rd-scan with radii = -1, 2 used to die in rng.integers(1, 1), exit 1
        values = {"pair": "dihedral", "samples": "2", "operator_samples": "2",
                  "f": "delta:1,1", "operator": "true", "radii": "0,2",
                  "operator_radii": "0,2"}
        ini = write_ini(tmp_path / "ok.ini", command, **values)
        assert run(command, config=ini, seed=1, out=str(tmp_path)) == 0
        values[key] = "-1,2"
        ini = write_ini(tmp_path / "c.ini", command, **values)
        assert run(command, config=ini, seed=1, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert ">= 0" in payload["message"] and key in payload["message"]

    NEGATIVE_INPUTS = [
        # (command, key, config, --seed); the key's negative value comes from
        # the config or, for key "seed" with config seed unset, the flag.
        # A negative seed used to die in numpy's SeedSequence with exit 1
        ("normest", "seed", {"f": "delta:1,1", "radii": "2", "seed": "-1"}, None),
        ("normest", "seed", {"f": "delta:1,1", "radii": "2"}, -1),
        ("rd-scan", "seed", {"radii": "2", "samples": "2", "seed": "-1"}, None),
        ("rd-scan", "seed", {"radii": "2", "samples": "2"}, -1),
        ("degrees", "seed", {"pair": "gl2q", "length": "log-det-prim", "samples": "5",
                             "seed": "-1"}, None),
        ("validate-length", "seed", {"seed": "-1"}, None),
        # negative counts, and transfer-check's empty balls, used to run and
        # report success without checking anything
        ("transfer-check", "samples", {"samples": "-1"}, 1),
        ("transfer-check", "radius", {"samples": "5", "radius": "-1"}, 1),
        ("rd-scan", "samples", {"radii": "2", "samples": "-3"}, 1),
        ("rd-scan", "operator_samples", {"radii": "2", "samples": "2", "operator": "true",
                                         "operator_radii": "2",
                                         "operator_samples": "-1"}, 1),
        ("validate-length", "samples", {"samples": "-2"}, None),
    ]

    @pytest.mark.parametrize("command, key, values, flag", NEGATIVE_INPUTS,
                             ids=["%s-%s%s" % (c, k, "-flag" if f == -1 else "")
                                  for c, k, _, f in NEGATIVE_INPUTS])
    def test_negative_seed_count_or_radius_exits_two(self, tmp_path, capsys, command,
                                                      key, values, flag):
        values = dict({"pair": "dihedral"}, **values)
        ini = write_ini(tmp_path / "c.ini", command, **values)
        assert run(command, config=ini, seed=flag, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert ">= 0" in payload["message"] and repr(key) in payload["message"]
        # the bound is inclusive: the same run at 0 succeeds
        ini = write_ini(tmp_path / "c.ini", command, **dict(values, **{key: "0"}))
        assert run(command, config=ini, seed=0 if flag == -1 else flag,
                   out=str(tmp_path)) == 0

    @pytest.mark.parametrize("values, message", [
        # samples = 0 used to report an empty ball, though none was enumerated
        ({"pair": "gl2q", "length": "log-det-prim", "samples": "0"},
         "no elements sampled: nothing to fit"),
        ({"pair": "dihedral", "radius": "-1"}, "empty ball: nothing to fit"),
    ], ids=["no-samples", "empty-ball"])
    def test_degrees_with_nothing_to_fit_exits_two(self, tmp_path, capsys, values,
                                                   message):
        ini = write_ini(tmp_path / "c.ini", "degrees", **values)
        assert run("degrees", config=ini, seed=1, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert payload["message"] == message

    def test_transfer_check_on_infinite_h_exits_two(self, tmp_path, capsys):
        # InfiniteSubgroupError used to escape as a traceback with exit 1
        ini = write_ini(tmp_path / "c.ini", "transfer-check", pair="gl2q",
                        samples="2")
        assert run("transfer-check", config=ini, seed=1, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "finite H" in payload["message"]

    def test_inline_term_without_key_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "normest", pair="dihedral",
                        f='{"terms": [{"re": "1"}]}', radii="2")
        assert run("normest", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "key" in payload["message"]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("re", ["1/3+2i", "x", "1/0", "inf"])
    def test_malformed_coefficient_exits_two(self, tmp_path, capsys, mode, re):
        # used to raise a bare ValueError (or ZeroDivisionError) with exit 1;
        # "inf" used to load as a coefficient in float mode
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="dihedral", mode=mode,
                        left='{"terms": [{"key": [1, 1], "re": "%s"}]}' % re,
                        right="delta:1,1")
        assert run("convolve", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "bad coefficient" in payload["message"]

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestArtifacts:
    def test_enumerate_csv_and_json(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "enumerate", pair="dihedral", radius="4")
        assert run("enumerate", config=ini, out=str(tmp_path)) == 0
        with open(tmp_path / "enumerate.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "length", "degree"]
        assert len(rows) == 1 + 5  # header + doubles sigma_0..sigma_4
        payload = json.loads((tmp_path / "enumerate.json").read_text())
        assert payload["counts"] == {"double": 5, "right": 9}
        assert payload["config"]["radius"] == 4

    def test_convolve_product_frozen(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "convolve",
            pair="dihedral", left="delta:1,1", right="delta:1,1",
        )
        assert run("convolve", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "convolve.json").read_text())
        terms = payload["product"]["terms"]
        assert [(t["key"], t["re"]) for t in terms] == [([0, 1], "2"), ([2, 1], "1")]

    def test_exact_convolve_with_fractional_coefficients_frozen(self, tmp_path):
        # (3/4 - 2/5 i) d(1/2, 1/3) + 5 d(2, 0) times (7/6 + 1/9 i) d(1/3, 1/5)
        # + (-1 + 2i) d(1, 0) on bost_connes; d(1, 0) is the unit, so the last
        # two rows are 5 (7/6 + 1/9 i) and 5 (-1 + 2i)
        left = json.dumps({"terms": [
            {"key": ["1/2", "1/3"], "re": "3/4", "im": "-2/5"},
            {"key": [2, 0], "re": "5"}]})
        right = json.dumps({"terms": [
            {"key": ["1/3", "1/5"], "re": "7/6", "im": "1/9"},
            {"key": [1, 0], "re": "-1", "im": "2"}]})
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="bost_connes",
                        mode="exact", left=left, right=right)
        assert run("convolve", config=ini, out=str(tmp_path)) == 0
        terms = json.loads((tmp_path / "convolve.json").read_text())["product"]["terms"]
        assert [(t["key"], t["re"], t["im"]) for t in terms] == [
            (["1/6", "13/90"], "331/360", "-23/60"),
            (["1/2", "1/3"], "1/20", "19/10"),
            (["2/3", "1/5"], "35/6", "5/9"),
            (["2", "0"], "-5", "10"),
        ]

    @pytest.mark.parametrize("name, key", [("gl2q", [[1, 0], [0, 2]]),
                                           ("semidirect", [[1, 2], 0])])
    def test_float_convolve_reads_exact_strings(self, tmp_path, name, key):
        # float mode used to call float("1/3") and die with exit 1
        left = json.dumps({"terms": [{"key": key, "re": "1/3", "im": "-2/7"}]})
        products = {}
        for mode in ("exact", "float"):
            out = tmp_path / mode
            ini = write_ini(tmp_path / ("%s.ini" % mode), "convolve", pair=name,
                            mode=mode, left=left, right=left)
            assert run("convolve", config=ini, out=str(out)) == 0
            data = json.loads((out / "convolve.json").read_text())["product"]
            products[mode] = element_from_json(build_pair(name), data, mode=mode)
        assert products["float"].sorted_terms() == products["exact"].to_float().sorted_terms()

    def test_normest_csv_header_and_monotone(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "normest",
            pair="dihedral", f="delta:1,1", radii="1,2,4",
        )
        assert run("normest", config=ini, out=str(tmp_path)) == 0
        with open(tmp_path / "normest.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["radius", "lower", "upper", "method"]
        lowers = [float(r[1]) for r in rows[1:]]
        assert lowers == sorted(lowers)
        uppers = {r[2] for r in rows[1:]}
        assert uppers == {"2"}

    def test_normest_summary_flags_unconverged(self, tmp_path, capsys):
        # no residual meets tol = 1e-300, so every solve stops at its cap
        ini = write_ini(
            tmp_path / "c.ini", "normest",
            pair="dihedral", f="delta:1,1", radii="1,2", tol="1e-300",
        )
        assert run("normest", config=ini, out=str(tmp_path)) == 0
        assert capsys.readouterr().out.strip().endswith("NOT converged")
        with open(tmp_path / "normest.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["converged"] for row in rows] == ["False", "False"]

    def test_jolissaint_artifacts(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "jolissaint",
            pair="dihedral", f="delta:3,1", alpha="1/2", q="1",
        )
        assert run("jolissaint", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "jolissaint.json").read_text())
        assert payload["nu"] == pytest.approx(8.0, abs=1e-9)
        assert payload["argmax_N"] == 4
        assert payload["vanishes_from"] == 9
        with open(tmp_path / "jolissaint.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["N", "rho", "block_dims"]
        assert len(rows) == 1 + 8  # levels 1..8 below the threshold

    def test_transfer_check_passes_on_tiny_run(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "transfer-check", pair="sl3", samples="6", radius="2"
        )
        assert run("transfer-check", config=ini, seed=5, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "transfer-check.json").read_text())
        assert payload["all_ok"]
        assert payload["checks"] >= 1

    def test_validate_length_exit_zero(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "validate-length", pair="dihedral")
        assert run("validate-length", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "validate-length.json").read_text())
        assert payload["ok"]
        assert payload["checks"] > 0

    def test_degrees_artifacts(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "degrees", pair="dihedral", radius="6")
        assert run("degrees", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "degrees.json").read_text())
        assert payload["d_fit"] == pytest.approx(2.0)
        with open(tmp_path / "degrees.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "length", "degree"]


class TestDeterminism:
    def test_rd_scan_byte_identical_rerun(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "rd-scan",
            pair="dihedral", radii="2,4", samples="6",
        )
        out = tmp_path / "out"
        assert run("rd-scan", config=ini, seed=9, out=str(out)) == 0
        first_csv = (out / "rd-scan.csv").read_bytes()
        first_json = (out / "rd-scan.json").read_bytes()
        assert run("rd-scan", config=ini, seed=9, out=str(out)) == 0
        assert (out / "rd-scan.csv").read_bytes() == first_csv
        assert (out / "rd-scan.json").read_bytes() == first_json

    def test_rd_scan_csv_shape(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "rd-scan",
            pair="dihedral", radii="2,4", samples="6",
        )
        assert run("rd-scan", config=ini, seed=9, out=str(tmp_path)) == 0
        with open(tmp_path / "rd-scan.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "r", "ball_double", "ball_right", "max_ratio_exact",
            "max_ratio_operator_lower", "schur_upper", "fitted_C", "fitted_s",
        ]
        assert [r[0] for r in rows[1:]] == ["2", "4"]

    def test_seed_changes_scan_output(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "rd-scan",
            pair="dihedral", radii="2,4", samples="6",
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("rd-scan", config=ini, seed=1, out=str(out_a)) == 0
        assert run("rd-scan", config=ini, seed=2, out=str(out_b)) == 0
        ja = json.loads((out_a / "rd-scan.json").read_text())
        jb = json.loads((out_b / "rd-scan.json").read_text())
        assert ja["config"]["seed"] != jb["config"]["seed"]

    def test_json_embeds_resolved_config(self, tmp_path, capsys):
        ini = write_ini(
            tmp_path / "c.ini", "jolissaint", pair="dihedral", f="delta:2,1",
        )
        assert run("jolissaint", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "jolissaint.json").read_text())
        # defaults that were consulted land in the config block
        assert payload["config"]["alpha"] == "1/2"
        assert payload["config"]["q"] == 1
