import argparse
import contextlib
import errno
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcanon import cli, common
from qcanon.cli import _PROPERTY_FAILURE, main
from qcanon.tensor import weight_space
from qcanon.verify import weight_slices
from qcanon.weightmod import dual_factors


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasisCommand:
    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "basis", "--lambda", "1,1", "--level", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "qcanon/1"
        assert doc["order"] == "lex"
        assert doc["weight"] == 0
        b01 = next(b for b in doc["basis"] if b["index"] == [0, 1])
        low = next(c for c in b01["coeffs"] if c["index"] == [1, 0])
        assert low["value"] == [[-2, "-1"]]  # the term -q^-1

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "basis", "--lambda", "2,1", "--level", "2")
        _, out2, _ = run(capsys, "basis", "--lambda", "2,1", "--level", "2")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        # -o writes exactly the bytes the request prints on stdout
        for argv in (("basis", "--lambda", "2,1,1", "--level", "2"),
                     ("diagrams", "--lambda", "1,1,1,1", "--level", "2")):
            path = tmp_path / f"{argv[0]}.json"
            code, out, _ = run(capsys, *argv, "-o", str(path))
            assert code == 0 and out == ""
            code, out, _ = run(capsys, *argv)
            assert code == 0 and path.read_bytes() == out.encode()

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, where):
        path = tmp_path if where == "directory" else tmp_path / "no" / "b.json"
        code, out, err = run(capsys, "basis", "--lambda", "1,1", "--level",
                             "1", "-o", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"qcanon: cannot write {path}: ")
        assert "Traceback" not in err


class TestCanonical2Command:
    def test_kind_and_content(self, capsys):
        code, out, _ = run(capsys, "canonical2", "--lambda", "1,1",
                           "--level", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "canonical"
        b10 = next(b for b in doc["basis"] if b["index"] == [1, 0])
        low = next(c for c in b10["coeffs"] if c["index"] == [0, 1])
        assert low["value"] == [[-2, "1"]]  # the term +q^-1

    def test_needs_two_factors(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "canonical2", "--lambda", "1,1,1", "--level", "1")
        assert err.value.code == 2


class TestDiagramsCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--lambda", "1,1",
                           "--level", "1")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 2
        assert [d["chords"] for d in doc["diagrams"]] == [[[0, 1]], [[1, 2]]]

    def test_singular_filter(self, capsys):
        _, out, _ = run(capsys, "diagrams", "--lambda", "1,1", "--level", "1",
                        "--filter", "singular")
        doc = json.loads(out)
        assert [d["chords"] for d in doc["diagrams"]] == [[[1, 2]]]

    def test_ascii_render(self, capsys):
        _, out, _ = run(capsys, "diagrams", "--lambda", "1,1,1,1",
                        "--level", "2", "--filter", "invariant",
                        "--render", "ascii")
        assert "*" in out and "z4" in out

    def test_empty_ascii_listing_says_so(self, capsys):
        code, out, _ = run(capsys, "diagrams", "--lambda", "1", "--level", "1",
                           "--filter", "singular", "--render", "ascii")
        assert code == 0 and out == "no diagrams\n"

    @pytest.mark.parametrize("lam, level", [("1,1", "3"), ("1,1,1", "1")])
    def test_invariant_filter_needs_weight_zero(self, capsys, lam, level):
        # (1,1) at level 3 is an empty slice: the guard must not depend on
        # there being a diagram to check
        code, out, err = run(capsys, "diagrams", "--lambda", lam,
                             "--level", level, "--filter", "invariant")
        assert code == 2 and out == ""
        assert "need sum(capacities) = 2*arcs" in err

    def test_capacity_far_beyond_memory(self, capsys):
        # one point of capacity 10^15 with two arcs: one diagram, and no
        # memory spent on the free capacity
        big = str(10**15)
        code, out, _ = run(capsys, "diagrams", "--lambda", big, "--level",
                           "2", "--max-sum", big)
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 1
        assert doc["diagrams"][0]["chords"] == [[0, 1], [0, 1]]

    def test_svg_render_single_document(self, capsys, tmp_path):
        path = tmp_path / "out.svg"
        code, out, _ = run(capsys, "diagrams", "--lambda", "1,1,1,1",
                           "--level", "2", "--render", "svg", "-o", str(path))
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg") and text.count("<svg") == 1


class TestRmatrixCommand:
    def test_theta_entries(self, capsys):
        code, out, _ = run(capsys, "rmatrix", "--lambda", "1,1", "--level",
                           "1", "--op", "theta")
        doc = json.loads(out)
        assert code == 0
        off = next(e for e in doc["entries"]
                   if e["row"] == [0, 1] and e["col"] == [1, 0])
        assert off["value"] == [[-2, "-1"], [2, "1"]]  # q - q^-1

    def test_rcheck_position(self, capsys):
        code, out, _ = run(capsys, "rmatrix", "--lambda", "1,1,1", "--level",
                           "1", "--op", "rcheck", "--pos", "1")
        doc = json.loads(out)
        assert code == 0 and doc["position"] == 1

    @pytest.mark.parametrize("op,pos", [
        ("rcheck", "5"), ("rcheck", "2"), ("rcheck", "-1"), ("theta_n", "0")],
        ids=["5", "2", "-1", "theta_n-0"])
    def test_rcheck_position_out_of_range_exit_2(self, capsys, op, pos):
        with pytest.raises(SystemExit) as err:
            run(capsys, "rmatrix", "--lambda", "1,1,1", "--level", "1",
                "--op", op, "--pos", pos)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "0 <= pos < 2" in err_text and "Traceback" not in err_text

    @pytest.mark.parametrize("lam", ["1", "1,1,1"])
    def test_theta_needs_two_weights(self, capsys, lam):
        with pytest.raises(SystemExit) as err:
            run(capsys, "rmatrix", "--lambda", lam, "--level", "1",
                "--op", "theta")
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert err_text.startswith("usage: qcanon")
        assert err_text.endswith(
            "error: --op theta needs exactly two weights\n")

    def test_tau_theta(self, capsys):
        code, out, _ = run(capsys, "rmatrix", "--lambda", "1,1", "--level",
                           "1", "--op", "tau_theta_n")
        doc = json.loads(out)
        off = next(e for e in doc["entries"]
                   if e["row"] == [1, 0] and e["col"] == [0, 1])
        assert off["value"] == [[-2, "-1"], [2, "1"]]


class TestCableCommand:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "cable", "--lambda", "2", "--level", "1")
        doc = json.loads(out)
        assert code == 0 and doc["all_scalars_one"]
        killed = next(o for o in doc["outcomes"] if o["killed"])
        assert killed["source"] == [0, 1]


class TestVerifyCommand:
    def test_ybe_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "ybe")
        assert code == 0
        assert out.startswith("PASS yang_baxter")

    def test_single_check_name(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "catalan")
        assert code == 0 and "catalan" in out

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    def test_unknown_suite_message_is_unquoted(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2 and out == ""
        assert err == (
            "qcanon: unknown suite 'nope'; know ['all', 'basis', "
            "'bijection_counts', 'braid_factorizations', 'braiding', "
            "'cabling', 'catalan', 'diagrams', 'duality', 'golden_dual_basis', "
            "'involutions', 'singular_bases', 'solver_contract', "
            "'yang_baxter', 'ybe']\n")

    def test_failure_is_exit_1_with_record(self, capsys, monkeypatch):
        import qcanon.verify as v

        def broken(max_sum):
            raise AssertionError("synthetic failure")

        monkeypatch.setitem(v.ALL_CHECKS, "catalan", broken)
        code, out, _ = run(capsys, "verify", "--suite", "catalan")
        assert code == 1
        record = json.loads(out.strip().splitlines()[-1])
        assert record["check"] == "catalan"
        assert record["error_type"] == "AssertionError"
        # raised on no slice: the record names none
        assert set(record) == {"check", "error_type", "error"}

    def test_basis_suite_compares_production_with_the_solver(self, capsys,
                                                             monkeypatch):
        # a production basis that still looks like one (lead 1, later
        # corrections in q^-1 Z[q^-1]) but is not the solver's: only the
        # comparison with the reference can tell
        import qcanon.verify as v
        from qcanon import linalg
        from qcanon.canonical import BasisVector
        from qcanon.qring import QScalar
        real = v.dual_canonical_basis

        def perturbed(lams, level):
            basis = real(lams, level)
            if tuple(lams) != (1, 1, 1) or level != 1:
                return basis
            first, later = basis[0], basis[1]
            coords = linalg.mat_add(first.coords, later.coords,
                                    QScalar.q_power(-1))
            return [BasisVector(first.index, first.space, coords), *basis[1:]]

        monkeypatch.setattr(v, "dual_canonical_basis", perturbed)
        code, out, _ = run(capsys, "verify", "--suite", "basis",
                           "--max-weight-sum", "3")
        assert code == 1
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines[:4]] == [
            ["PASS", "golden_dual_basis"], ["PASS", "involutions"],
            ["FAIL", "solver_contract"], ["PASS", "duality"]]
        assert "closed form != solver at (0, 0, 1) on (1, 1, 1) level 1" \
            in lines[2]
        record = json.loads(lines[-1])
        assert record["check"] == "solver_contract"
        assert record["lambda"] == [1, 1, 1] and record["level"] == 1
        assert record["error"] == ("closed form != solver at (0, 0, 1) on "
                                   "(1, 1, 1) level 1")

    @pytest.mark.parametrize("requested", [6, 5, 3])
    def test_clamped_bound_reported_on_stderr(self, capsys, monkeypatch,
                                             requested):
        import qcanon.verify as v
        used = {}

        def fake(name):
            def check(max_sum):
                used[name] = max_sum
                return "fine"
            return check

        for name in ("cabling", "duality", "catalan"):
            monkeypatch.setitem(v.ALL_CHECKS, name, fake(name))
        monkeypatch.setitem(v.SUITE_ALIASES, "trio",
                            ("catalan", "cabling", "duality"))
        code, out, err = run(capsys, "verify", "--suite", "trio",
                             "--max-weight-sum", str(requested))
        assert code == 0
        assert used == {"catalan": requested, "cabling": min(requested, 5),
                        "duality": min(requested, 5)}
        assert [line.split(" (")[0] for line in out.splitlines()[:3]] == \
            ["PASS catalan", "PASS cabling", "PASS duality"]
        if requested > 5:
            assert err.splitlines() == [
                f"qcanon: {name} ran at --max-weight-sum 5, not {requested}"
                for name in ("cabling", "duality")]
        else:
            assert err == ""


    @pytest.mark.parametrize("bound, code", [(8, 0), (9, 2)])
    def test_weight_sum_bound_is_capped(self, capsys, monkeypatch, bound,
                                        code):
        import qcanon.verify as v
        ran = []

        def fake(name):
            def check(max_sum):
                ran.append(name)
                return "fine"
            return check

        for name in v.ALL_CHECKS:
            monkeypatch.setitem(v.ALL_CHECKS, name, fake(name))
        got, out, err = run(capsys, "verify", "--max-weight-sum", str(bound))
        assert got == code
        if code == 2:  # refused before any check ran
            assert ran == [] and out == ""
            assert err == "qcanon: --max-weight-sum 9 exceeds the limit 8\n"
        else:
            assert ran == list(v.ALL_CHECKS)


class TestGuards:
    def test_bad_lambda_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "basis", "--lambda", "1,x", "--level", "1")
        assert err.value.code == 2

    def test_negative_level_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "basis", "--lambda", "1,1", "--level", "-1")
        assert err.value.code == 2
        assert "argument --level: must be nonnegative: -1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag, value", [
        (["basis", "--lambda", "1,1", "--level", "x"], "--level", "x"),
        (["basis", "--lambda", "1", "--level", "0", "--max-sum", "2e3"],
         "--max-sum", "2e3"),
        (["verify", "--max-weight-sum", "1.5"], "--max-weight-sum", "1.5")])
    def test_non_integer_count_exit_2(self, capsys, argv, flag, value):
        # the message names the flag and the value, not a private function
        with pytest.raises(SystemExit) as err:
            run(capsys, *argv)
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert f"argument {flag}: not a nonnegative integer: '{value}'" \
            in err_text
        assert "_nonneg" not in err_text and "Traceback" not in err_text

    def test_weight_sum_guard(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "basis", "--lambda", "7,7", "--level", "1")
        assert err.value.code == 2

    def test_max_sum_override(self, capsys):
        code, _, _ = run(capsys, "basis", "--lambda", "7,7", "--level", "0",
                         "--max-sum", "14")
        assert code == 0

    def test_dimension_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QCANON_MAX_DIM", "1")
        with pytest.raises(SystemExit) as err:
            run(capsys, "basis", "--lambda", "1,1", "--level", "1")
        assert err.value.code == 2

    def test_dimension_cap_covers_the_cabled_unit_slice(self, capsys,
                                                         monkeypatch):
        # the (2,2) slice at level 2 has dim 3; cable also solves 1^4 at
        # level 2, of dim 6
        monkeypatch.setenv("QCANON_MAX_DIM", "5")
        with pytest.raises(SystemExit) as err:
            run(capsys, "cable", "--lambda", "2,2", "--level", "2")
        assert err.value.code == 2
        assert "QCANON_MAX_DIM=5" in capsys.readouterr().err

    def test_dimension_cap_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("QCANON_MAX_DIM", "abc")
        with pytest.raises(SystemExit) as err:
            run(capsys, "basis", "--lambda", "1,1", "--level", "1")
        assert err.value.code == 2
        assert "QCANON_MAX_DIM" in capsys.readouterr().err

    def test_dimension_cap_must_be_nonnegative(self, capsys, monkeypatch):
        monkeypatch.setenv("QCANON_MAX_DIM", "-3")
        with pytest.raises(SystemExit) as err:
            run(capsys, "basis", "--lambda", "1", "--level", "0")
        assert err.value.code == 2
        assert ("QCANON_MAX_DIM must be a nonnegative integer, got '-3'"
                in capsys.readouterr().err)

    def test_dimension_cap_counts_each_slice(self, monkeypatch):
        # the guard's count is the slice dimension, for the request and for
        # the unit slice that cable also solves
        class Refused(Exception):
            pass

        class Parser:
            def error(self, message):
                raise Refused(message)

        for lams, level in weight_slices(6):
            for more in ((), ((1,) * sum(lams),)):
                args = argparse.Namespace(lam=lams, level=level,
                                          max_sum=sum(lams))
                dim = max(weight_space(dual_factors(x), level).dim
                          for x in (lams, *more))
                monkeypatch.setenv("QCANON_MAX_DIM", str(dim))
                cli._guard(args, Parser(), *more)
                monkeypatch.setenv("QCANON_MAX_DIM", str(dim - 1))
                with pytest.raises(Refused, match=f"dimension {dim} exceeds"):
                    cli._guard(args, Parser(), *more)

    def test_dimension_cap_lists_no_tuples(self, capsys, monkeypatch):
        # 1^40 at level 20 has C(40, 20) index tuples, too many to list; only
        # the guard runs, so a guard that let the request through runs nothing
        def listing(*args):
            raise AssertionError("the guard listed the slice")

        monkeypatch.setattr(common, "enumerate_P", listing)
        monkeypatch.setattr(cli, "enumerate_P", listing, raising=False)
        monkeypatch.setenv("QCANON_MAX_DIM", "100")
        parser = cli.build_parser()
        args = parser.parse_args(["diagrams", "--lambda", ",".join("1" * 40),
                                  "--level", "20", "--max-sum", "40"])
        with pytest.raises(SystemExit) as err:
            cli._guard(args, parser)
        assert err.value.code == 2
        assert ("weight slice dimension 137846528820 exceeds "
                "QCANON_MAX_DIM=100") in capsys.readouterr().err

    def test_recursion_depth_exit_2(self, capsys, monkeypatch):
        import qcanon.diagrams as diagrams

        def explode(lam, level):
            raise RecursionError

        monkeypatch.setattr(diagrams, "enumerate_B", explode)
        code, out, err = run(capsys, "diagrams", "--lambda", "1,1",
                             "--level", "1")
        assert code == 2 and out == ""
        assert err == ("qcanon: RecursionError: the request is too large; "
                       "lower --max-sum or set QCANON_MAX_DIM\n")

    def test_many_factors_need_no_deep_recursion(self, capsys):
        # 1500 factors: deeper than the recursion limit, one diagram
        code, out, _ = run(capsys, "diagrams", "--lambda",
                           ",".join(["1"] * 1500), "--level", "0",
                           "--max-sum", "2000")
        assert code == 0
        assert json.loads(out)["count"] == 1

    @pytest.mark.parametrize("argv, weights", [
        pytest.param(argv, weights, id=" ".join(argv) + suffix)
        for weights, suffix in ((["0"] * 300, ""),
                                (["1"] * 1500, " 1500 unit factors"))
        for argv in (("basis",), ("rmatrix", "--op", "theta_n"),
                     ("rmatrix", "--op", "tau_theta_n"))])
    def test_many_factors_n_fold_recursions(self, capsys, argv, weights):
        # 300 zero-weight factors, or 1500 unit factors at level 0: one
        # vector, deeper than the recursion limit if the n-fold recursions
        # took one frame per factor; the unit factors also list each suffix
        # slice, which must not cost a copy per factor
        code, out, _ = run(capsys, *argv, "--lambda", ",".join(weights),
                           "--level", "0", "--max-sum", "2000")
        assert code == 0
        doc = json.loads(out)
        entries = doc["basis"][0]["coeffs"] if "basis" in doc \
            else doc["entries"]
        assert [e["value"] for e in entries] == [[[0, "1"]]]

    @pytest.mark.parametrize("argv", [
        ("basis", "--lambda", str(10**14)),
        ("canonical2", "--lambda", f"{10**14},{10**14}"),
        ("rmatrix", "--op", "theta_n", "--lambda", f"{10**14},{10**14}")],
        ids=["basis", "canonical2", "rmatrix-theta_n"])
    def test_huge_weights_at_level_zero_answer(self, argv):
        # a module stores nothing per slot, so level 0 of V(10^14) is one
        # vector at any highest weight.  Run in a child with its address
        # space capped at 1 GiB, so that a regression fails fast with a
        # MemoryError instead of filling the machine's memory.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("QCANON_MAX_DIM", None)
        done = subprocess.run(
            [sys.executable, "-m", "qcanon.cli", *argv, "--level", "0",
             "--max-sum", str(2 * 10**14)],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=cap_memory)
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        if "basis" in doc:
            [b] = doc["basis"]
            assert b["coeffs"] == [{"index": b["index"], "value": [[0, "1"]]}]
        else:
            assert doc["source_index"] == doc["target_index"] == [[0, 0]]
            assert [e["value"] for e in doc["entries"]] == [[[0, "1"]]]

    def test_memory_error_exit_2(self, capsys, monkeypatch):
        import qcanon.canonical as canonical

        def explode(lams, level):
            raise MemoryError

        monkeypatch.setattr(canonical, "dual_canonical_basis", explode)
        code, out, err = run(capsys, "basis", "--lambda", "2", "--level", "1")
        assert code == 2 and out == ""
        assert err == ("qcanon: MemoryError: the request is too large; "
                       "lower --max-sum or set QCANON_MAX_DIM\n")

    def test_property_failure_exit_1(self, capsys, monkeypatch):
        import qcanon.cabling as cabling
        from qcanon.cabling import StructuralMismatchError

        def explode(lams, level):
            raise StructuralMismatchError("synthetic mismatch")

        monkeypatch.setattr(cabling, "cabling_report", explode)
        code, out, _ = run(capsys, "cable", "--lambda", "2", "--level", "1")
        assert code == 1
        record = json.loads(out)
        assert record["failure"] and record["error_type"] == \
            "StructuralMismatchError"


def test_property_failures_are_the_classes_the_layers_raise():
    from qcanon import cli, diagrams, qring, rmatrix
    assert set(cli._PROPERTY_FAILURE) == {
        qring.InexactDivisionError, qring.BarAsymmetryError,
        qring.OddExponentError, rmatrix.NotReducedError,
        diagrams.InvalidDiagramError, AssertionError}


@pytest.mark.parametrize(
    "exc_type, code",
    [(t, 1) for t in _PROPERTY_FAILURE] + [(ValueError, 2)],
    ids=lambda x: getattr(x, "__name__", str(x)))
def test_exception_from_a_command_maps_to_exit_code(capsys, monkeypatch,
                                                    exc_type, code):
    import qcanon.diagrams as diagrams

    def explode(lams, level):
        raise exc_type("synthetic")

    monkeypatch.setattr(diagrams, "enumerate_B", explode)
    got, out, err = run(capsys, "diagrams", "--lambda", "1,1", "--level", "1")
    assert got == code
    if code == 1:
        assert json.loads(out) == {
            "schema": "qcanon/1", "failure": True,
            "error_type": exc_type.__name__, "error": "synthetic"}
        assert err == ""
    else:
        assert out == "" and err == "qcanon: synthetic\n"


# The documents as plain dicts: json.dumps of each is the byte-identity
# oracle for the CLI's renderers.

def pairs(x) -> list:
    """A scalar as its ascending [v-exponent, coefficient-as-string] pairs."""
    return [[e, str(c)] for e, c in sorted(x._terms.items())]


def basis_dict(lams, level, basis, kind) -> dict:
    return {
        "schema": "qcanon/1",
        "kind": kind,
        "lambda": list(lams),
        "level": level,
        "weight": sum(lams) - 2 * level,
        "order": "lex",
        "basis": [{
            "index": list(b.index),
            "coeffs": [{"index": list(b.space.indices[i]),
                        "value": pairs(x)}
                       for i, x in sorted(b.coords.items())],
        } for b in basis],
    }


def diagrams_dict(lams, level, filter_name, diagrams) -> dict:
    return {
        "schema": "qcanon/1",
        "lambda": list(lams),
        "level": level,
        "filter": filter_name,
        "count": len(diagrams),
        "diagrams": [{"points": d.n, "capacities": list(d.capacities),
                      "chords": [list(c) for c in d.chords]}
                     for d in diagrams],
    }


def operator_dict(op, lams, level, name, position=None) -> dict:
    rows, entries = op.target.indices, []
    for j, col in enumerate(op.source.indices):
        for i, x in sorted(op.matrix.col(j).items()):
            entries.append({"row": list(rows[i]), "col": list(col),
                            "value": pairs(x)})
    out = {
        "schema": "qcanon/1",
        "op": name,
        "lambda": list(lams),
        "level": level,
        "source_index": [list(m) for m in op.source.indices],
        "target_index": [list(m) for m in op.target.indices],
        "entries": entries,
    }
    if position is not None:
        out["position"] = position
    return out


def cable_dict(report) -> dict:
    outcomes = []
    for o in report.outcomes:
        if o.killed:
            outcomes.append({"source": list(o.source), "killed": True})
        else:
            outcomes.append({"source": list(o.source), "killed": False,
                             "target": list(o.target),
                             "scalar": pairs(o.scalar)})
    return {
        "schema": "qcanon/1",
        "lambda": list(report.lam),
        "level": report.level,
        "outcomes": outcomes,
        "all_unit_scalars": report.all_unit_scalars,
        "all_scalars_one": report.all_scalars_one,
    }


def _as_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# slices with zero weights, level 0 and levels past the top (empty slices)
_SLICES = st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                    .filter(lambda xs: sum(xs) <= 7).map(tuple),
                    st.integers(0, 5))


class TestRenderers:
    """Each renderer writes the bytes of json.dumps(sort_keys=True,
    indent=2) of the dict the CLI used to build."""

    @settings(max_examples=60, deadline=None)
    @given(_SLICES)
    def test_basis(self, piece):
        from qcanon.canonical import canonical_basis_pair, dual_canonical_basis
        lams, level = piece
        basis = dual_canonical_basis(lams, level)
        assert "".join(cli._basis_doc(lams, level, basis, "dual_canonical")) \
            == _as_json(basis_dict(lams, level, basis, "dual_canonical"))
        if len(lams) == 2:
            basis = canonical_basis_pair(lams, level)
            assert "".join(cli._basis_doc(lams, level, basis, "canonical")) \
                == _as_json(basis_dict(lams, level, basis, "canonical"))

    @settings(max_examples=60, deadline=None)
    @given(_SLICES, st.sampled_from((None, "singular", "invariant")))
    def test_diagrams(self, piece, filter_name):
        from qcanon.diagrams import (enumerate_B, filter_invariant,
                                     filter_singular)
        lams, level = piece
        if filter_name == "invariant":  # needs weight zero
            lams += (1,) * (sum(lams) % 2)
            level = sum(lams) // 2
        diagrams = enumerate_B(lams, level)
        if filter_name == "singular":
            diagrams = filter_singular(diagrams)
        elif filter_name == "invariant":
            diagrams = filter_invariant(diagrams)
        assert "".join(cli._diagrams_doc(lams, level, filter_name, diagrams)) \
            == _as_json(diagrams_dict(lams, level, filter_name, diagrams))

    @settings(max_examples=60, deadline=None)
    @given(_SLICES, st.sampled_from(("theta", "theta_n", "tau_theta_n",
                                     "rcheck", "rcheck-pos")), st.data())
    def test_operators(self, piece, name, data):
        from qcanon.rmatrix import (rcheck_longest, rcheck_matrix,
                                    tau_theta_n, theta_matrix, theta_n_matrix)
        from qcanon.weightmod import dual_factors, simple_factors
        lams, level = piece
        position = None
        if name == "theta":
            lams = (lams * 2)[:2]
            op = theta_matrix(simple_factors(lams), level)
        elif name == "theta_n":
            op = theta_n_matrix(simple_factors(lams), level)
        elif name == "tau_theta_n":
            op = tau_theta_n(dual_factors(lams), level)
        elif name == "rcheck" or len(lams) == 1:
            name = "rcheck"
            op = rcheck_longest(simple_factors(lams), level)
        else:
            name = "rcheck"
            position = data.draw(st.integers(0, len(lams) - 2))
            op = rcheck_matrix(simple_factors(lams), level, position)
        assert "".join(cli._operator_doc(op, lams, level, name, position)) \
            == _as_json(operator_dict(op, lams, level, name, position))

    def test_cable_on_every_slice(self):
        from qcanon.cabling import cabling_report
        for lams, level in weight_slices(5):
            report = cabling_report(lams, level)
            assert "".join(cli._cable_doc(report)) \
                == _as_json(cable_dict(report)), (lams, level)

    def test_cable_synthetic(self):
        # a killed outcome, scalars that are not units, both flags false or
        # mixed, and no outcomes: reports the desk-scale sweep never makes
        from qcanon.cabling import CablingOutcome, CablingReport
        from qcanon.qring import QScalar
        q = QScalar.q_power
        outcomes = (
            CablingOutcome((0, 1, 1), killed=True),
            CablingOutcome((1, 0, 1), killed=False, target=(1, 1),
                           scalar=-q(-1) + 2 * q(3)),
            CablingOutcome((1, 1, 0), killed=False, target=(2, 0),
                           scalar=QScalar({-3: 2**70, 1: -7})))
        for report in (CablingReport((2, 1), 2, outcomes, False, False),
                       CablingReport((2, 1), 2, outcomes[:2], True, False),
                       CablingReport((1,), 2, (), False, True)):
            assert "".join(cli._cable_doc(report)) \
                == _as_json(cable_dict(report))

    @pytest.mark.parametrize("argv", [
        ["basis", "--lambda", "1,1", "--level", "3"],
        ["canonical2", "--lambda", "0,0", "--level", "0"],
        ["diagrams", "--lambda", "1,1", "--level", "2", "--filter",
         "singular"],
        ["rmatrix", "--lambda", "1,1", "--level", "3", "--op", "theta"]],
        ids=["basis", "canonical2-level-0", "diagrams", "rmatrix"])
    def test_empty_and_trivial_documents(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-40, 40),
                           st.integers(-2**70, 2**70).filter(bool)),
           st.sampled_from(("\n", "\n      ", "\n          ")))
    def test_scalar_values(self, terms, pad):
        from qcanon.qring import QScalar
        value = cli._values(pad)
        x = QScalar(terms)
        reverse = QScalar(dict(reversed(terms.items())))
        expected = json.dumps(pairs(x), indent=2).replace("\n", pad)
        assert value(x) == expected
        assert value(reverse) == expected  # the memo sees terms unsorted


def test_import_leaves_numpy_out():
    code = ("import sys, qcanon.cli, qcanon.verify; "
            "sys.exit('numpy' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env)
    assert done.returncode == 0


def test_import_loads_no_dataclasses_or_inspect():
    # the difference of sys.modules, so that what `site` loads does not count
    code = ("import sys; before = set(sys.modules); "
            "import qcanon.cli, qcanon.verify; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "qcanon.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _loaded_modules(statements: str) -> set[str]:
    """The qcanon modules a fresh interpreter loads to run `statements`."""
    code = ("import sys; before = set(sys.modules)\n" + statements + "\n"
            "print(' '.join(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] == 'qcanon')))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QCANON_MAX_DIM", None)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


RING = {"qcanon.qring", "qcanon.linalg", "qcanon.weightmod", "qcanon.tensor",
        "qcanon.rmatrix", "qcanon.canonical"}


def test_import_cli_loads_no_ring_module():
    assert _loaded_modules("import qcanon.cli") == {
        "qcanon", "qcanon.cli", "qcanon.common"}


def test_import_package_loads_no_submodule():
    assert _loaded_modules("import qcanon") == {"qcanon"}


@pytest.mark.parametrize("argv, max_dim, modules", [
    (["diagrams", "--lambda", "1,1,1,1", "--level", "2"], None,
     {"qcanon", "qcanon.cli", "qcanon.common", "qcanon.diagrams"}),
    (["diagrams", "--lambda", "1,1,1,1", "--level", "2"], "6",
     {"qcanon", "qcanon.cli", "qcanon.common", "qcanon.diagrams"}),
    (["basis", "--lambda", "1,2", "--level", "1"], None,
     {"qcanon", "qcanon.cli", "qcanon.common"} | RING),
    (["canonical2", "--lambda", "1,2", "--level", "1"], None,
     {"qcanon", "qcanon.cli", "qcanon.common"} | RING),
], ids=["diagrams", "diagrams-max-dim", "basis", "canonical2"])
def test_request_loads_only_what_it_runs(argv, max_dim, modules):
    # with QCANON_MAX_DIM set, the guard counts the slice, no ring code
    env = "" if max_dim is None else \
        f"os.environ['QCANON_MAX_DIM'] = {max_dim!r}\n"
    loaded = _loaded_modules(
        "import contextlib, io, os, qcanon.cli\n" + env +
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert qcanon.cli.main({argv!r}) == 0")
    assert loaded == modules


@pytest.mark.parametrize("argv", [
    ["basis", "--lambda", "1,2", "--level", "1"],
    ["canonical2", "--lambda", "1,2", "--level", "1"],
    ["diagrams", "--lambda", "1,1,1,1", "--level", "2"],
    ["rmatrix", "--lambda", "1,2,1", "--level", "2", "--op", "rcheck"],
    ["cable", "--lambda", "2,1,1", "--level", "3"]],
    ids=["basis", "canonical2", "diagrams", "rmatrix", "cable"])
def test_request_leaves_json_unloaded(argv):
    # the renderers need no JSON escaping; only the failure records load
    # json
    code = ("import contextlib, io, sys, qcanon.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert qcanon.cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'json'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QCANON_MAX_DIM", None)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.skipif("%d.%d" % sys.version_info[:2] != HELP["python"],
                    reason="argparse lays out help differently across "
                           "Python versions")
@pytest.mark.parametrize("command", sorted(HELP["help"]),
                         ids=lambda c: c or "qcanon")
def test_help_text_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", str(HELP["columns"]))
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP["help"][command]


@st.composite
def cli_requests(draw):
    """An argv for any subcommand, and where its -o points, if anywhere."""
    command = draw(st.sampled_from(("basis", "canonical2", "diagrams",
                                    "rmatrix", "cable", "verify")))
    if command == "verify":
        argv = ["verify", "--suite",
                draw(st.sampled_from(("ybe", "catalan", "diagrams", "cabling",
                                      "duality", "nonsense"))),
                "--max-weight-sum", str(draw(st.integers(-1, 2)))]
    else:
        lam = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)
                   .filter(lambda xs: sum(xs) <= 4))
        argv = [command, "--lambda", ",".join(map(str, lam)),
                "--level", str(draw(st.integers(-1, 6)))]
    if command == "diagrams":
        for flag, choices in (("--filter", ("singular", "invariant")),
                              ("--render", ("ascii", "svg"))):
            choice = draw(st.sampled_from((None,) + choices))
            if choice:
                argv += [flag, choice]
    if command == "rmatrix":
        argv += ["--op", draw(st.sampled_from(("theta", "theta_n",
                                               "tau_theta_n", "rcheck")))]
        pos = draw(st.one_of(st.none(), st.integers(-2, 4)))
        if pos is not None:
            argv += ["--pos", str(pos)]
    return argv, draw(st.sampled_from((None, "file", "directory", "missing")))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cli_requests())
def test_fuzzed_argv_ends_in_exit_0_1_or_2(request):
    argv, output = request
    with tempfile.TemporaryDirectory() as tmp:
        target = {"file": os.path.join(tmp, "out.json"), "directory": tmp,
                  "missing": os.path.join(tmp, "absent", "out.json")}
        if output:
            argv = argv + ["-o", target[output]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the request
                code = exc.code
                assert code == 2, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in sink.getvalue()


# The process entry, `python -m qcanon.cli` and the `qcanon` script: run()
# flushes stdout and stderr and ends with os._exit, without interpreter
# teardown.  The children run with buffered stdout unless a test sets
# PYTHONUNBUFFERED, so that the final flush has something to write.

SRC = str(Path(__file__).resolve().parents[1] / "src")
LARGE = ("basis", "--lambda", "1,1,1,1,1,1,1,1,1", "--level", "4")
SMALL = ("basis", "--lambda", "1,1", "--level", "1")
UNITS_12 = "1,1,1,1,1,1,1,1,1,1,1,1"
STREAMED = {  # documents written in many chunks, each over 64 KiB
    "basis": LARGE,
    "canonical2": ("canonical2", "--lambda", "14,14", "--level", "14",
                   "--max-sum", "28"),
    "diagrams": ("diagrams", "--lambda", UNITS_12, "--level", "6"),
    "rmatrix": ("rmatrix", "--lambda", "1,1,1,1,1,1,1,1", "--level", "4",
                "--op", "theta_n"),
}
EPIPE_LINE = f"qcanon: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


def _child_env(**extra):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("QCANON_MAX_DIM", None)
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **extra}


def _entry(argv, stdout=subprocess.PIPE, **extra):
    return subprocess.run([sys.executable, "-m", "qcanon.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE,
                          env=_child_env(**extra), timeout=120)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [None, "1"],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [SMALL, LARGE,
                                      ("verify", "--suite", "catalan")],
                             ids=["small", "large", "verify"])
    def test_closed_pipe_exits_2(self, argv, unbuffered):
        # the read end is closed before the child starts, so every write
        # to the pipe fails with EPIPE, whatever the timing
        extra = {} if unbuffered is None else {"PYTHONUNBUFFERED": unbuffered}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _entry(argv, stdout=write_end, **extra)
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.decode() == EPIPE_LINE

    @pytest.mark.parametrize("argv", STREAMED.values(), ids=STREAMED)
    def test_reader_leaving_mid_stream_exits_2(self, argv):
        # the reader takes one byte and leaves while the child still has
        # more to write than the pipe holds
        child = subprocess.Popen([sys.executable, "-m", "qcanon.cli", *argv],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, env=_child_env())
        try:
            assert child.stdout.read(1) == b"{"
        finally:
            child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
        assert err.decode() == EPIPE_LINE

    @pytest.mark.parametrize("argv", [SMALL, ("verify", "--suite", "catalan")],
                             ids=["basis", "verify"])
    def test_stdout_closed_at_start_exits_2(self, argv):
        # with fd 1 closed when the interpreter starts, sys.stdout is None
        code = ("import os, sys; os.close(1); os.execv(sys.executable, "
                "[sys.executable, '-m', 'qcanon.cli', *sys.argv[1:]])")
        done = subprocess.run([sys.executable, "-c", code, *argv],
                              stderr=subprocess.PIPE, env=_child_env(),
                              timeout=120)
        assert done.returncode == 2
        assert done.stderr.decode() == \
            f"qcanon: cannot write stdout: {os.strerror(errno.EBADF)}\n"

    @pytest.mark.parametrize("command", ["", "basis"],
                             ids=["qcanon", "basis"])
    def test_help_into_closed_pipe_exits_2(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _entry([command, "--help"] if command else ["--help"],
                          stdout=write_end)
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.decode() == EPIPE_LINE

    @pytest.mark.parametrize("command", ["", "basis"],
                             ids=["qcanon", "basis"])
    def test_help_into_live_pipe_exits_0(self, command):
        done = _entry([command, "--help"] if command else ["--help"],
                      COLUMNS=str(HELP["columns"]))
        assert done.returncode == 0 and done.stderr == b""
        if "%d.%d" % sys.version_info[:2] == HELP["python"]:
            assert done.stdout.decode() == HELP["help"][command]
        else:  # argparse lays out help differently across versions
            assert done.stdout.startswith(b"usage: qcanon")

    @pytest.mark.parametrize("argv", [SMALL, ("verify", "--suite", "catalan"),
                                      ("diagrams", "--lambda", "1,1",
                                       "--level", "1")],
                             ids=["basis", "verify", "failure-record"])
    def test_write_error_in_process_exits_2(self, capsys, monkeypatch, argv):
        import qcanon.diagrams as diagrams

        def explode(lams, level):
            raise AssertionError("synthetic")

        if argv[0] == "diagrams":  # exit 1, but its record cannot be written
            monkeypatch.setattr(diagrams, "enumerate_B", explode)
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(list(argv)) == 2
        assert capsys.readouterr().err == EPIPE_LINE

    @pytest.mark.parametrize("output", [None, "directory"])
    def test_failed_final_flush_is_one_line_and_exit_2(
            self, capsys, monkeypatch, tmp_path, output):
        class Exited(Exception):
            pass

        def fake_exit(code):
            raise Exited(code)

        class UnflushablePipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        argv = ["qcanon", *SMALL]
        if output:  # an exit 2 that has already said why
            argv += ["-o", str(tmp_path)]
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.setattr(sys, "stdout", UnflushablePipe())
        monkeypatch.setattr(os, "_exit", fake_exit)
        with pytest.raises(Exited) as exc:
            cli.run()
        assert exc.value.args == (2,)
        err = capsys.readouterr().err
        if output:
            assert err.startswith(f"qcanon: cannot write {tmp_path}: ")
            assert len(err.splitlines()) == 1
        else:
            assert err == EPIPE_LINE


class TestFastExitLosesNothing:
    @pytest.mark.parametrize("argv", [SMALL, *STREAMED.values()],
                             ids=["small", *STREAMED])
    def test_output_to_pipe_file_and_o(self, capsys, tmp_path, argv):
        # a small output is still in stdout's buffer when main() returns;
        # a streamed one is more than a pipe buffer holds
        assert main(list(argv)) == 0
        expected = capsys.readouterr().out.encode()
        assert (len(expected) > 64 * 1024) == (argv is not SMALL)
        piped = _entry(argv)
        assert piped.returncode == 0 and piped.stderr == b""
        assert piped.stdout == expected
        with open(tmp_path / "stdout", "wb") as fh:
            to_file = _entry(argv, stdout=fh)
        assert to_file.returncode == 0 and to_file.stderr == b""
        assert (tmp_path / "stdout").read_bytes() == expected
        path = tmp_path / "out.json"
        by_o = _entry([*argv, "-o", str(path)])
        assert by_o.returncode == 0 and by_o.stdout == by_o.stderr == b""
        assert path.read_bytes() == expected

    def test_verify_keeps_its_stderr_lines(self):
        done = _entry(["verify", "--suite", "all", "--max-weight-sum", "6"])
        assert done.returncode == 0
        assert done.stderr.decode().splitlines() == [
            f"qcanon: {name} ran at --max-weight-sum 5, not 6"
            for name in ("cabling", "duality")]
        lines = done.stdout.decode().splitlines()
        passed = lines[-1].split()[0].split("/")
        assert passed[0] == passed[1] == str(len(lines) - 1)

    def test_dimension_cap_exits_2(self):
        done = _entry(SMALL, QCANON_MAX_DIM="1")
        assert done.returncode == 2 and done.stdout == b""
        err = done.stderr.decode()
        assert err.endswith("error: weight slice dimension 2 exceeds "
                            "QCANON_MAX_DIM=1\n")
        assert "Traceback" not in err

    def test_failed_check_exits_1_with_record(self):
        code = ("import sys, qcanon.verify as v\n"
                "def broken(max_sum):\n"
                "    raise AssertionError('synthetic failure')\n"
                "v.ALL_CHECKS['catalan'] = broken\n"
                "sys.argv = ['qcanon', 'verify', '--suite', 'catalan']\n"
                "from qcanon.cli import run\n"
                "run()\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, env=_child_env(),
                              timeout=120)
        assert done.returncode == 1, done.stderr
        lines = done.stdout.decode().splitlines()
        assert lines[0].startswith("FAIL catalan (")
        assert json.loads(lines[-1]) == {
            "check": "catalan", "error_type": "AssertionError",
            "error": "synthetic failure"}
