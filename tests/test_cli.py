"""Command line runner: exit codes, artifact shapes, determinism."""

import csv
import json
import math
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
    convolve,
    double_key,
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
            back = element_from_json(f.pair, data)
            assert back.sorted_terms() == f.sorted_terms(), name

    def test_exact_coefficients_survive_as_strings(self, dihedral):
        f = HeckeElement.delta(
            dihedral, DihedralElement(1, 1), coeff=QQi(Fraction(2, 7), Fraction(-1, 3))
        )
        data = element_to_json(f)
        assert data["terms"][0]["re"] == "2/7"
        assert data["terms"][0]["im"] == "-1/3"

    def test_delta_shorthand(self, dihedral):
        f = load_element(dihedral, "delta:3,-1")
        assert f.sorted_terms() == HeckeElement.delta(
            dihedral, DihedralElement(3, -1)
        ).sorted_terms()

    def test_inline_json_spec(self, dihedral):
        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=QQi(0, 1)) \
            + HeckeElement.delta(dihedral, DihedralElement(0, 1), coeff=2)
        spec = json.dumps(element_to_json(f))
        back = load_element(dihedral, spec)
        assert back.sorted_terms() == f.sorted_terms()

    def test_semidirect_key_of_wrong_rank_rejected(self, semidirect):
        from heckepairs import ConfigError

        with pytest.raises(ConfigError, match="coordinates"):
            load_element(semidirect, "delta:1,0")

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
            load_element(pairs[name], spec)

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("value", ["inf", "nan", json.loads("Infinity")],
                             ids=["inf", "nan", "json-Infinity"])
    def test_non_finite_parts_refused(self, dihedral, part, value):
        from heckepairs import ConfigError

        data = {"terms": [{"key": [1, 1], part: value}]}
        with pytest.raises(ConfigError, match="bad coefficient"):
            element_from_json(dihedral, data)

    @pytest.mark.parametrize("part, unit", [("re", 1), ("im", QQi(0, 1))],
                             ids=["re", "im"])
    @pytest.mark.parametrize("big", ["1e400", "1" + "0" * 400 + "/1"],
                             ids=["1e400", "401-digit-fraction"])
    def test_parts_past_the_float_range_read_exactly(self, dihedral, part, unit, big):
        f = element_from_json(dihedral, {"terms": [{"key": [1, 1], part: big}]})
        assert f.sorted_terms() == HeckeElement.delta(
            dihedral, DihedralElement(1, 1), coeff=unit * 10 ** 400).sorted_terms()

    def test_long_element_loads_as_its_summed_terms(self, dihedral):
        # 2,000 terms over 16 doubles, with repeats and with keys that cancel
        # and come back: one constructor call gives the terms, in the order,
        # of the sum of the deltas
        def summed(terms):
            out = HeckeElement.zero(dihedral)
            for t in terms:
                out = out + HeckeElement.delta(dihedral, DihedralElement(*t["key"]),
                                               coeff=QQi(t["re"], t["im"]))
            return out

        terms = [{"key": [(7 * i) % 31 - 15, 1], "re": str(i % 5 - 2),
                  "im": "0" if i % 2 else "1/%d" % (i % 3 + 1)} for i in range(1996)]
        for n in (3, 8):  # cancel these two doubles
            c = summed(terms).coefficient(double_key(dihedral, DihedralElement(n, 1)))
            terms.append({"key": [n, 1], "re": str(-c.real), "im": str(-c.imag)})
        terms += [{"key": [0, 1], "re": "1", "im": "0"}, {"key": [3, 1], "re": "5", "im": "0"}]
        want = summed(terms)
        got = element_from_json(dihedral, {"terms": terms})
        assert list(got.terms.items()) == list(want.terms.items())
        assert len(terms) == 2000 and len(want.terms) == 15
        # the double of (3, 1) came back, at the end
        assert list(want.terms)[-1] == double_key(dihedral, DihedralElement(3, 1))

    def test_wrong_pair_rejected(self, dihedral, finite_index):
        from heckepairs import ConfigError, IntegerElement

        data = element_to_json(HeckeElement.delta(finite_index, IntegerElement(1)))
        with pytest.raises(ConfigError):
            element_from_json(dihedral, data)

    def test_product_written_with_mode_exact_loads(self, tmp_path):
        # the product of test_exact_convolve_with_fractional_coefficients_frozen
        # as convolve.json wrote it while elements still carried "mode"
        old = {"kind": "double", "mode": "exact", "pair": "bost_connes", "params": {},
               "terms": [
                   {"im": "-23/60", "key": ["1/6", "13/90"], "re": "331/360"},
                   {"im": "19/10", "key": ["1/2", "1/3"], "re": "1/20"},
                   {"im": "5/9", "key": ["2/3", "1/5"], "re": "35/6"},
                   {"im": "10", "key": ["2", "0"], "re": "-5"}]}
        path = tmp_path / "product.json"
        path.write_text(json.dumps(old))
        pair = build_pair("bost_connes")
        got = load_element(pair, str(path))
        left = load_element(pair, json.dumps({"terms": [
            {"key": ["1/2", "1/3"], "re": "3/4", "im": "-2/5"},
            {"key": [2, 0], "re": "5"}]}))
        right = load_element(pair, json.dumps({"terms": [
            {"key": ["1/3", "1/5"], "re": "7/6", "im": "1/9"},
            {"key": [1, 0], "re": "-1", "im": "2"}]}))
        assert got == convolve(pair, left, right)
        assert element_to_json(got) == {k: v for k, v in old.items() if k != "mode"}


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

    @pytest.mark.parametrize("command, values", [
        ("rd-scan", {"radii": "2", "samples": "2", "seed": "0"}),
        ("degrees", {"radius": "2"}),
        ("validate-length", {"samples": "2"}),
    ])
    def test_lengthless_pair_exits_two_with_one_message(self, tmp_path, capsys,
                                                        command, values):
        ini = write_ini(tmp_path / "c.ini", command, pair="gl2q", **values)
        assert run(command, config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert payload["message"] == "pair 'gl2q' has no length"

    def test_exhausted_budget_fails_with_json(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "degrees", pair="dihedral", radius="3",
                        budget="1")
        assert run("degrees", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "budget 1" in payload["message"]

    def test_enumerate_budget_governs_its_degree_walks(self, tmp_path, capsys):
        # the ball is a closed form; the budget bounds the orbit walk behind
        # each double coset's degree, and sigma_1 has two right cosets
        ini = write_ini(tmp_path / "c.ini", "enumerate", pair="dihedral", radius="3",
                        budget="1")
        assert run("enumerate", config=ini, out=str(tmp_path / "out")) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure" and payload["command"] == "enumerate"
        assert "budget 1" in payload["message"]
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("key", ["delta:2,0,0,0,1,0,0,0,1",
                                     "delta:1,0,0,0,0,0,0,0,0"],
                             ids=["det-2", "singular"])
    def test_sl3_key_outside_sl3z_exits_two(self, tmp_path, capsys, key):
        # both used to exit 0 and write a product (of det-4 keys for det 2)
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="sl3", left=key, right=key)
        assert run("convolve", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "sl3 needs an integer matrix of determinant 1" in payload["message"]
        assert not (tmp_path / "convolve.json").exists()

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

    @pytest.mark.parametrize("command, key", [("rd-scan", "radii"), ("normest", "radii")])
    def test_negative_radius_exits_two(self, tmp_path, capsys, command, key):
        # rd-scan with radii = -1, 2 used to die in rng.integers(1, 1), exit 1
        values = {"pair": "dihedral", "samples": "2", "f": "delta:1,1", "radii": "0,2"}
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
        ("validate-length", "samples", {"samples": "-2"}, None),
        # enumerate wrote an empty ball and exited 0; degrees exited 2 but
        # said "empty ball: nothing to fit"
        ("enumerate", "radius", {"pair": "semidirect", "radius": "-2"}, None),
        ("degrees", "radius", {"radius": "-1"}, None),
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
        # samples = 0 used to report an empty ball, though none was enumerated;
        # radius = -1, the one way to an empty ball, is refused before the walk
        ({"pair": "gl2q", "length": "log-det-prim", "samples": "0"},
         "no elements sampled: nothing to fit"),
        ({"pair": "dihedral", "radius": "-1"},
         "key 'radius': need an integer >= 0, got -1"),
    ], ids=["no-samples", "empty-ball"])
    def test_degrees_with_nothing_to_fit_exits_two(self, tmp_path, capsys, values,
                                                   message):
        ini = write_ini(tmp_path / "c.ini", "degrees", **values)
        assert run("degrees", config=ini, seed=1, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert payload["message"] == message

    @pytest.mark.parametrize("budget", ["-1", "0"])
    @pytest.mark.parametrize("command, values, message", [
        ("enumerate", {"pair": "dihedral"}, "key 'budget': need an integer >= 1, got {}"),
        ("degrees", {"pair": "gl2q", "length": "log-det-prim", "samples": "8"},
         "key 'budget': need an integer >= 1, got {}"),
        ("rd-scan", {"pair": "dihedral", "radii": "2", "samples": "2"},
         "key 'budget' is retired: rd-scan runs the exact scan only, and takes no budget"),
    ], ids=["enumerate", "degrees", "rd-scan"])
    def test_budget_below_one_exits_two(self, tmp_path, capsys, command, values,
                                        message, budget):
        # a walk always holds its start; enumerate and rd-scan used to run
        # and record the budget, degrees to fail on "exceeded budget -1".
        # rd-scan now takes no budget at all
        ini = write_ini(tmp_path / "c.ini", command, budget=budget, **values)
        assert run(command, config=ini, seed=1, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert payload["message"] == message.format(budget)

    def test_transfer_check_on_infinite_h_exits_two(self, tmp_path, capsys):
        # InfiniteSubgroupError used to escape as a traceback with exit 1
        ini = write_ini(tmp_path / "c.ini", "transfer-check", pair="gl2q",
                        samples="2")
        assert run("transfer-check", config=ini, seed=1, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "finite H" in payload["message"]

    @pytest.mark.parametrize("kind", ["right", "bogus"])
    @pytest.mark.parametrize("command, key", [
        ("convolve", "left"), ("normest", "f"), ("jolissaint", "f"),
    ])
    def test_element_json_of_another_kind_exits_two(self, tmp_path, capsys, command,
                                                    key, kind):
        # a non-"double" kind used to load a right-coset vector: convolve and
        # jolissaint exited 0 (kind "right" gave the product 2 sigma_1), normest
        # died in norm_upper with an AttributeError and exit 1
        spec = json.dumps({"kind": kind, "terms": [{"key": [1, 1], "re": "1"},
                                                   {"key": [-1, 1], "re": "1"}]})
        values = {"pair": "dihedral", "left": "delta:1,1", "right": "delta:1,1",
                  "f": "delta:1,1", "radii": "2"}
        ini = write_ini(tmp_path / "ok.ini", command, **values)
        assert run(command, config=ini, out=str(tmp_path)) == 0
        ini = write_ini(tmp_path / "c.ini", command, **dict(values, **{key: spec}))
        assert run(command, config=ini, out=str(tmp_path / "bad")) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure" and payload["command"] == command
        assert payload["message"] == ("element JSON must be a Hecke element "
                                      "(kind 'double'), got kind %r" % kind)
        assert not (tmp_path / "bad").exists()

    def test_inline_term_without_key_exits_two(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "normest", pair="dihedral",
                        f='{"terms": [{"re": "1"}]}', radii="2")
        assert run("normest", config=ini, out=str(tmp_path)) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "key" in payload["message"]

    @pytest.mark.parametrize("re", ["1/3+2i", "x", "1/0", "inf"])
    def test_malformed_coefficient_exits_two(self, tmp_path, capsys, re):
        # used to raise a bare ValueError (or ZeroDivisionError) with exit 1
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="dihedral",
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

    @pytest.mark.parametrize("command", ["normest", "jolissaint"])
    @pytest.mark.parametrize("exp", [200, 400])
    def test_coefficient_past_the_float_range_exits_two(self, tmp_path, capsys,
                                                         command, exp):
        # both used to exit 1: QQi.__complex__ overflowed at 10^400, and
        # normest's l1_norm overflowed squaring 10^200
        f = json.dumps({"terms": [{"key": [2, 1], "re": str(10 ** exp)}]})
        ini = write_ini(tmp_path / "c.ini", command, pair="dihedral", f=f, radii="2")
        assert run(command, config=ini, out=str(tmp_path / "out")) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure" and payload["command"] == command
        assert "float range" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_schur_bound_past_the_float_range_exits_two(self, tmp_path, capsys,
                                                        monkeypatch):
        # |c|^2 = 10^308 fits a float, ||f||_1 ||f*||_1 = 4 * 10^308 does not;
        # normest used to write lower = upper = inf as converged
        from heckepairs import operators

        def solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(operators, "top_singular_value", solve)
        f = json.dumps({"terms": [{"key": [2, 1], "re": str(10 ** 154)}]})
        ini = write_ini(tmp_path / "c.ini", "normest", pair="dihedral", f=f, radii="2")
        assert run("normest", config=ini, out=str(tmp_path / "out")) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure" and payload["command"] == "normest"
        assert "past the float range" in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exp", [100, 153])
    def test_normest_converges_on_large_coefficients(self, tmp_path, capsys, exp):
        # the Gram residual's squares used to overflow from about 1e154 on,
        # so both solves ran all 10,000 steps and ended NOT converged
        f = json.dumps({"terms": [{"key": [2, 1], "re": str(10 ** exp)}]})
        ini = write_ini(tmp_path / "c.ini", "normest", pair="dihedral", f=f, radii="2")
        assert run("normest", config=ini, out=str(tmp_path)) == 0
        assert not capsys.readouterr().out.strip().endswith("NOT converged")
        with open(tmp_path / "normest.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["converged"] == "True" and int(row["iterations"]) < 100
        assert math.isfinite(float(row["residual"]))
        # lambda(sigma_2) on the radius-2 ball has norm sqrt(3); the Schur bound is 2
        assert float(row["lower"]) == pytest.approx(math.sqrt(3) * 10.0 ** exp, rel=1e-9)
        assert float(row["upper"]) == pytest.approx(2 * 10.0 ** exp, rel=1e-12)

    def test_corner_blocks_at_the_float_range_edge_still_run(self, tmp_path, capsys):
        # LAPACK scales its blocks, so the seminorm of 10^154 delta(2, 1) is
        # 10^154 times that of delta(2, 1): sqrt(2) + sqrt(2) at N = 1
        f = json.dumps({"terms": [{"key": [2, 1], "re": str(10 ** 154)}]})
        ini = write_ini(tmp_path / "c.ini", "jolissaint", pair="dihedral", f=f)
        assert run("jolissaint", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "jolissaint.json").read_text())
        assert payload["nu"] == pytest.approx(2 * math.sqrt(2) * 1e154, rel=1e-12)

    @pytest.mark.parametrize("where", ["key", "json"])
    def test_stale_float_inputs_refused(self, tmp_path, capsys, where):
        spec = '{"mode": "float", "terms": [{"key": [1, 1], "re": "1"}]}'
        values = {"key": {"mode": "float", "left": "delta:1,1"},
                  "json": {"left": spec}}[where]
        ini = write_ini(tmp_path / "c.ini", "convolve", pair="dihedral",
                        right="delta:1,1", **values)
        assert run("convolve", config=ini, out=str(tmp_path / "out")) == 2
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["status"] == "failure"
        assert "exact only" in payload["message"] and "'float'" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_retired_operator_scan_keys_exit_two(self, tmp_path, capsys):
        # the operator scan is gone: a config that still asks for it is
        # refused by name, not run as an exact scan alone. So is a budget:
        # the scan's table build walks every orbit that the degree fit
        # walks, under the default budget, so the key changed nothing
        for key, value in (("operator", "true"), ("operator_radii", "2"),
                           ("operator_samples", "2"), ("budget", "-1"),
                           ("budget", "1"), ("budget", "1000000")):
            ini = write_ini(tmp_path / "c.ini", "rd-scan", pair="dihedral", radii="2",
                            samples="2", **{key: value})
            assert run("rd-scan", config=ini, seed=1, out=str(tmp_path / "out")) == 2
            payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert payload["status"] == "failure" and payload["command"] == "rd-scan"
            assert repr(key) in payload["message"]
            assert not (tmp_path / "out").exists()

    def test_mode_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["convolve", "--mode", "float"])
        assert exc.value.code == 2

    def test_exact_mode_key_still_loads(self, tmp_path):
        # "exact" still loads, and is not echoed into the artifact
        ini = write_ini(tmp_path / "exact.ini", "convolve", pair="dihedral", mode="exact",
                        left="delta:1,1", right="delta:1,1")
        assert run("convolve", config=ini, out=str(tmp_path / "exact")) == 0
        assert '"mode"' not in (tmp_path / "exact" / "convolve.json").read_text()


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
                        left=left, right=right)
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
    def test_convolve_reads_exact_strings(self, tmp_path, name, key):
        # the CLI product of fractional complex strings is the in-process one
        pair = build_pair(name)
        left = {"terms": [{"key": key, "re": "1/3", "im": "-2/7"}]}
        ini = write_ini(tmp_path / "c.ini", "convolve", pair=name,
                        left=json.dumps(left), right=json.dumps(left))
        assert run("convolve", config=ini, out=str(tmp_path)) == 0
        data = json.loads((tmp_path / "convolve.json").read_text())["product"]
        f = element_from_json(pair, left)
        assert f.sorted_terms()[0][1] == QQi(Fraction(1, 3), Fraction(-2, 7))
        want = convolve(pair, f, f)
        assert not want.is_zero()
        assert element_from_json(pair, data).sorted_terms() == want.sorted_terms()

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

    @pytest.mark.parametrize("radius", [None, "-1"], ids=["default", "negative"])
    def test_degrees_on_sampled_elements_reads_no_radius(self, tmp_path, capsys,
                                                          radius):
        # log-det-prim is not locally finite, so no ball is walked: the
        # radius used to be recorded as 8, and -1 refused
        values = {"pair": "gl2q", "length": "log-det-prim", "samples": "8"}
        if radius is not None:
            values["radius"] = radius
        ini = write_ini(tmp_path / "c.ini", "degrees", **values)
        assert run("degrees", config=ini, seed=3, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "degrees.json").read_text())
        assert "radius" not in payload["config"]
        assert len(payload["table"]) == 8

    def test_degrees_artifacts(self, tmp_path, capsys):
        ini = write_ini(tmp_path / "c.ini", "degrees", pair="dihedral", radius="6")
        assert run("degrees", config=ini, out=str(tmp_path)) == 0
        payload = json.loads((tmp_path / "degrees.json").read_text())
        assert payload["d_fit"] == pytest.approx(2.0)
        with open(tmp_path / "degrees.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["key", "length", "degree"]


class TestDeterminism:
    RERUNS = {
        "pairs": {},
        "enumerate": {"pair": "semidirect", "radius": "3"},
        "degrees": {"pair": "gl2q", "length": "log-det-prim", "samples": "6"},
        "convolve": {"pair": "bost_connes", "left": "delta:1/2,1/3",
                     "right": '{"terms": [{"key": [2, 0], "re": "1/3", "im": "2"}]}'},
        "normest": {"pair": "semidirect", "f": "delta:1,0,0", "radii": "2,4"},
        "rd-scan": {"pair": "dihedral", "radii": "2,4", "samples": "6"},
        "transfer-check": {"pair": "sl3", "samples": "4", "radius": "2"},
        "jolissaint": {"pair": "dihedral", "f": "delta:3,1"},
        "validate-length": {"pair": "semidirect", "samples": "5"},
    }

    @pytest.mark.parametrize("command", sorted(RERUNS))
    def test_byte_identical_rerun(self, tmp_path, capsys, command):
        # artifacts used to echo the output directory, so a rerun into
        # another directory differed in that one line
        ini = write_ini(tmp_path / "c.ini", command, **self.RERUNS[command])
        outs = [tmp_path / "a", tmp_path / "b" / "nested"]
        for out in outs:
            assert run(command, config=ini, seed=9, out=str(out)) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

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
            "max_ratio_upper", "schur_upper", "fitted_C", "fitted_s",
        ]
        assert [r[0] for r in rows[1:]] == ["2", "4"]

    def test_readme_rd_scan_example(self, tmp_path, capsys):
        # the README's [rd-scan] section, run as written, prints the first
        # three CSV lines that the README shows
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        ini = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        (tmp_path / "demo.ini").write_text(ini, encoding="utf-8")
        shown = readme.split("$ head -3 out/rd-scan.csv\n", 1)[1].split("```", 1)[0]
        out = tmp_path / "out"
        assert run("rd-scan", config=tmp_path / "demo.ini", out=str(out)) == 0
        head = (out / "rd-scan.csv").read_bytes().splitlines(keepends=True)[:3]
        assert b"".join(head) == shown.encode("utf-8")

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
