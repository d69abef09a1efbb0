import io
import json
import math
import os
import subprocess
import sys

import pytest

from gaugekit import analysis, cli, cousin, expr
from gaugekit.cli import (
    EXIT_CANTCREAT,
    EXIT_CAP_EXCEEDED,
    EXIT_CERTIFY_FAILED,
    EXIT_CHECK_FAILED,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_NO_SIGN_CHANGE,
    EXIT_OK,
    EXIT_PARTITION_FAILED,
    EXIT_USAGE,
    main,
)
from gaugekit.induction import InductionPolicy
from gaugekit.intervals import Interval


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartition:
    def test_constant_gauge(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--gauge", "const:0.3",
                               "--interval", "0", "1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["cells"]) == 4
        assert data["domain"] == {"lo": 0.0, "hi": 1.0}

    def test_expr_gauge(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--gauge", "expr:x/2 + 0.0001",
                               "--interval", "0", "1")
        assert code == EXIT_OK
        assert json.loads(out)["cells"]

    def test_pw_gauge(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--gauge", "pw:0:0.5,0.5:0.25",
                               "--interval", "0", "1")
        assert code == EXIT_OK

    def test_negative_gauge_rejected(self, capsys):
        code, _, err = run_cli(capsys, "partition", "--gauge", "const:-1",
                               "--interval", "0", "1")
        assert code == EXIT_DATA
        assert "positive" in err

    def test_degenerate_interval_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "partition", "--gauge", "const:1",
                             "--interval", "1", "1")
        assert code == EXIT_DATA

    def test_stall_diagnostic(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--gauge", "const:1e-5",
                               "--interval", "0", "1", "--strategy", "creep",
                               "--max-cells", "10")
        assert code == EXIT_PARTITION_FAILED
        data = json.loads(out)
        assert data["status"] == "failed"
        assert data["stall"]["cells_emitted"] == 10

    def test_bad_spec_prefix(self, capsys):
        code, _, _ = run_cli(capsys, "partition", "--gauge", "0.3",
                             "--interval", "0", "1")
        assert code == EXIT_DATA

    def test_creep_counts_the_final_cell_against_the_cap(self, capsys):
        # const:0.1 needs 11 creep cells on [0, 1], the last one the
        # final-cell lookahead
        argv = ["partition", "--gauge", "const:0.1", "--interval", "0", "1",
                "--max-cells", "10"]
        code, out, _ = run_cli(capsys, *argv, "--strategy", "creep")
        assert code == EXIT_PARTITION_FAILED
        assert json.loads(out)["stall"] == {"frontier": 0.9999999999999999,
                                            "cells_emitted": 10}
        code, out, _ = run_cli(capsys, *argv)  # hybrid: bisection's 8 cells
        assert code == EXIT_OK
        assert len(json.loads(out)["cells"]) == 8
        code, out, _ = run_cli(capsys, *argv[:-1], "11", "--strategy", "creep")
        assert code == EXIT_OK
        assert len(json.loads(out)["cells"]) == 11


class TestCreepFinalCell:
    def test_tiny_negative_lo(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, _, err = run_cli(capsys, "partition", "--gauge", "const:1.0",
                               "--interval", "-1e-17", "1", "--output", str(path))
        assert code == EXIT_OK, err
        code, out, _ = run_cli(capsys, "check", "--partition", str(path),
                               "--gauge", "const:1.0")
        assert code == EXIT_OK
        assert json.loads(out)["fine"] is True

    @pytest.mark.parametrize("strategy", ["creep", "hybrid"])
    @pytest.mark.parametrize("lo", [-5e-324, -1e-300, -1e-17, -1.1e-16, -3e-16, -1e-9])
    @pytest.mark.parametrize("hi", [1.0, 0.7, 3.0])
    def test_gauge_wider_than_domain_never_internal_error(self, capsys, strategy, lo, hi):
        width = hi - lo
        for delta in (width, math.nextafter(width, math.inf), hi, 1.5 * width, 4.0 * width):
            code, _, err = run_cli(capsys, "partition", "--gauge", f"const:{delta!r}",
                                   "--interval", repr(lo), repr(hi), "--strategy", strategy)
            assert code == EXIT_OK, (delta, err)


class TestCheck:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, _, _ = run_cli(capsys, "partition", "--gauge", "const:0.3",
                             "--interval", "0", "1", "--output", str(path))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "check", "--partition", str(path),
                               "--gauge", "const:0.3")
        assert code == EXIT_OK
        assert json.loads(out) == {"valid": True, "violations": [], "fine": True,
                                   "first_violation": None, "margin": None}

    def test_gap_detected(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "partition", "--gauge", "const:0.3", "--interval", "0", "1",
                "--output", str(path))
        data = json.loads(path.read_text())
        data["cells"][1]["lo"] += 1e-9  # open a gap
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "check", "--partition", str(path),
                               "--gauge", "const:0.3")
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out)
        assert not report["valid"]
        assert any(v["kind"] == "contiguity" for v in report["violations"])

    def test_tag_outside_cell(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "partition", "--gauge", "const:0.3", "--interval", "0", "1",
                "--output", str(path))
        data = json.loads(path.read_text())
        data["cells"][0]["tag"] = 0.9
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "check", "--partition", str(path),
                               "--gauge", "const:0.3")
        assert code == EXIT_CHECK_FAILED

    def test_unfine_partition(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "partition", "--gauge", "const:0.3", "--interval", "0", "1",
                "--output", str(path))
        code, out, _ = run_cli(capsys, "check", "--partition", str(path),
                               "--gauge", "const:0.2")
        assert code == EXIT_CHECK_FAILED
        report = json.loads(out)
        assert report["valid"] and not report["fine"]

    def test_nan_tag_is_not_fine(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"domain": {"lo": 0, "hi": 1}, "cells": ['
                        '{"lo": 0, "hi": 0.5, "tag": 0.25}, {"lo": 0.5, "hi": 1, "tag": NaN}]}')
        code, out, _ = run_cli(capsys, "check", "--partition", str(path),
                               "--gauge", "const:0.3")
        assert code == EXIT_CHECK_FAILED

        def strict(name):
            raise ValueError(f"not strict JSON: {name}")

        report = json.loads(out, parse_constant=strict)
        assert [(v["index"], v["kind"]) for v in report["violations"]] == [(1, "tag")]
        assert (report["fine"], report["first_violation"], report["margin"]) == (False, 1, None)

    CELLS = [{"lo": 0, "hi": 0.25, "tag": 0}, {"lo": 0.25, "hi": 0.5, "tag": 0.25},
             {"lo": 0.5, "hi": 0.75, "tag": 0.5}, {"lo": 0.75, "hi": 1, "tag": 1}]

    @pytest.mark.parametrize("index, change, message", [
        (3, {"lo": 1, "hi": 0}, "cell 3: interval endpoints out of order: [1.0, 0.0]"),
        (0, {"lo": -math.inf}, "cell 0: interval endpoints must be finite: [-inf, 0.25]"),
        (2, {"hi": math.nan}, "cell 2: interval endpoints must be finite: [0.5, nan]"),
        (1, {"tag": None}, "cell 1: partition JSON missing field 'tag'"),
        (2, {"lo": "0.5"}, "cell 2: partition JSON field 'lo' is not a number"),
        (1, {"hi": True}, "cell 1: partition JSON field 'hi' is not a number"),
    ])
    def test_bad_cell_is_named(self, capsys, tmp_path, index, change, message):
        cells = [dict(c) for c in self.CELLS]
        cells[index].update(change)
        if cells[index]["tag"] is None:
            del cells[index]["tag"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"domain": {"lo": 0, "hi": 1}, "cells": cells}))
        code, out, err = run_cli(capsys, "check", "--partition", str(path),
                                 "--gauge", "const:0.3")
        assert (code, out, err) == (EXIT_DATA, "", f"error: {message}\n")

    @pytest.mark.parametrize("domain, message", [
        ({"lo": 1, "hi": 0}, "interval endpoints out of order: [1.0, 0.0]"),
        ({"lo": 0}, "partition JSON missing field 'hi'"),
    ])
    def test_bad_domain_is_not_a_cell(self, capsys, tmp_path, domain, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"domain": domain, "cells": self.CELLS}))
        code, out, err = run_cli(capsys, "check", "--partition", str(path),
                                 "--gauge", "const:0.3")
        assert (code, out, err) == (EXIT_DATA, "", f"error: {message}\n")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "check", "--partition", str(path),
                             "--gauge", "const:0.3")
        assert code == EXIT_DATA

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "check", "--partition", str(tmp_path / "no.json"),
                             "--gauge", "const:0.3")
        assert code == EXIT_DATA


class TestRoot:
    def test_sqrt2(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--f", "x^2-2", "--y", "0",
                               "--interval", "1", "2", "--tol", "1e-6")
        assert code == EXIT_OK
        data = json.loads(out)
        assert abs(data["c"] - math.sqrt(2.0)) <= 1e-5
        assert data["residual_bound"] <= 1e-6

    def test_linear(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--f", "x", "--y", "0.5",
                               "--interval", "0", "1")
        assert code == EXIT_OK
        assert abs(json.loads(out)["c"] - 0.5) <= 1e-5

    def test_no_sign_change(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--f", "x^2+1", "--y", "0",
                               "--interval", "-1", "1")
        assert code == EXIT_NO_SIGN_CHANGE
        assert json.loads(out)["error"] == "no_sign_change"

    def test_explicit_lipschitz(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--f", "x^2-2", "--y", "0",
                               "--interval", "1", "2", "--lipschitz", "4")
        assert code == EXIT_OK

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "root", "--f", "x^", "--y", "0",
                               "--interval", "0", "1")
        assert code == EXIT_DATA

    def test_trace_written(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "root", "--f", "x^2-2", "--y", "0",
                             "--interval", "1", "2", "--trace", str(path))
        assert code == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines
        steps = [json.loads(line) for line in lines]
        assert all(set(s) == {"s", "t"} for s in steps)
        assert all(s["s"] < s["t"] for s in steps)


class TestExtremum:
    def test_sin_max(self, capsys):
        code, out, _ = run_cli(capsys, "extremum", "--max", "--f", "sin(x)",
                               "--interval", "0", "3.141592653589793",
                               "--tol", "1e-4")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["extremum"] == "max"
        assert data["lo"] <= 1.0 <= data["hi"]

    def test_parabola_min(self, capsys):
        code, out, _ = run_cli(capsys, "extremum", "--min", "--f", "x^2",
                               "--interval", "-1", "1", "--tol", "1e-6")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["lo"] <= 0.0 <= data["hi"]
        assert abs(data["candidate"]) < 1e-2

    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "extremum", "--max", "--f", "3",
                               "--interval", "0", "1", "--tol", "1e-3")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["lo"] == 3.0 and data["hi"] <= 3.0 + 1e-3

    def test_requires_direction(self, capsys):
        code, _, _ = run_cli(capsys, "extremum", "--f", "x", "--interval", "0", "1")
        assert code == EXIT_USAGE

    def test_upper_end_certifies(self, capsys):
        code, out, _ = run_cli(capsys, "extremum", "--max", "--f", "sin(x)",
                               "--interval", "0", "3.141592653589793", "--tol", "1e-4")
        assert code == EXIT_OK
        hi = json.loads(out)["hi"]
        code, _, _ = run_cli(capsys, "certify", "--f", "sin(x)", "--bound", repr(hi),
                             "--interval", "0", "3.141592653589793")
        assert code == EXIT_OK

    @pytest.mark.parametrize("direction", ["--max", "--min"])
    def test_failed_replay_is_internal_error(self, capsys, monkeypatch, direction):
        monkeypatch.setattr(analysis, "verify_bound_certificate",
                            lambda cert, f, mod: False)
        code, out, err = run_cli(capsys, "extremum", direction, "--f", "sin(x)",
                                 "--interval", "0", "3.141592653589793",
                                 "--tol", "1e-4")
        assert code == EXIT_INTERNAL
        assert out == ""
        assert "internal error" in err


class TestCertifyVerify:
    def test_no_root_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "certify", "--f", "x", "--no-root", "2",
                             "--interval", "0", "1", "--output", str(path))
        assert code == EXIT_OK
        data = json.loads(path.read_text())
        assert data["kind"] == "sign" and len(data["pieces"]) == 1
        code, out, _ = run_cli(capsys, "verify", "--certificate", str(path), "--f", "x")
        assert code == EXIT_OK
        assert json.loads(out) == {"verified": True}

    def test_bound_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "certify", "--f", "sin(x)", "--bound", "1.5",
                             "--interval", "0", "3.141592653589793",
                             "--output", str(path))
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, "verify", "--certificate", str(path),
                               "--f", "sin(x)")
        assert code == EXIT_OK

    def test_bound_certify_fails_near_peak(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--f", "sin(x)", "--bound", "0.9",
                               "--interval", "0", "3.14159")
        assert code == EXIT_CERTIFY_FAILED
        data = json.loads(out)
        assert data["error"] == "bound_violated"
        assert abs(data["x"] - math.pi / 2.0) < 0.1

    def test_no_root_stall_reports_root(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--f", "x^2-2", "--no-root", "0",
                               "--interval", "1", "2")
        assert code == EXIT_CERTIFY_FAILED
        data = json.loads(out)
        assert data["error"] == "stall"
        assert abs(data["stall_point"] - math.sqrt(2.0)) < 1e-5

    def test_tampered_certificate_rejected(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "--f", "x", "--no-root", "2",
                "--interval", "0", "1", "--output", str(path))
        data = json.loads(path.read_text())
        data["pieces"][0]["delta"] *= 4
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", "--certificate", str(path), "--f", "x")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out) == {"verified": False}

    def test_trace_lines_match_json_dumps(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, _ = run_cli(capsys, "certify", "--f", "sin(x)", "--bound", "1.01",
                             "--interval", "0", "3", "--trace", str(path))
        assert code == EXIT_OK
        ast, dom = expr.parse("sin(x)"), Interval(0.0, 3.0)
        steps: list = []
        analysis.bound_certificate(expr.as_function(ast), 1.01, dom,
                                   analysis.Lipschitz(expr.lipschitz_bound(ast, dom)),
                                   InductionPolicy(), trace=steps)
        assert len(steps) > 10
        assert path.read_text() == "".join(json.dumps({"s": s, "t": t}) + "\n"
                                           for s, t in steps)

    @pytest.mark.parametrize("side", ["above", 17, None])
    def test_bound_certificate_side_must_be_below(self, capsys, tmp_path, side):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "--f", "sin(x)", "--bound", "1.5",
                "--interval", "0", "3.141592653589793", "--output", str(path))
        data = json.loads(path.read_text())
        assert data["side"] == "below"
        if side is None:
            del data["side"]
        else:
            data["side"] = side
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--certificate", str(path),
                                 "--f", "sin(x)")
        assert code == EXIT_DATA
        assert out == ""
        assert "side must be 'below'" in err

    def test_malformed_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text('{"kind": "sign"}')
        code, _, _ = run_cli(capsys, "verify", "--certificate", str(path), "--f", "x")
        assert code == EXIT_DATA

    @staticmethod
    def _bound_pieces(capsys, tmp_path):
        path = tmp_path / "cert.json"
        run_cli(capsys, "certify", "--f", "sin(x)", "--bound", "1.5",
                "--interval", "0", "3.141592653589793", "--output", str(path))
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("lipschitz", [[], ["--lipschitz", "1"]])
    @pytest.mark.parametrize("order", ["reversed", "swapped"])
    def test_pieces_out_of_order_are_rejected(self, capsys, tmp_path, lipschitz, order):
        path, data = self._bound_pieces(capsys, tmp_path)
        pieces = data["pieces"]
        if order == "reversed":
            pieces.reverse()
        else:
            pieces[2], pieces[3] = pieces[3], pieces[2]
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--certificate", str(path),
                                 "--f", "sin(x)", *lipschitz)
        assert (code, out, err) == (EXIT_CHECK_FAILED, '{\n  "verified": false\n}\n', "")

    @pytest.mark.parametrize("field,value,message", [
        ("fs", "one", "piece 3: certificate JSON field 'fs' is not a number"),
        ("delta", None, "piece 3: certificate JSON field 'delta' is not a number"),
        ("s", "missing", "piece 3: certificate JSON missing field 's'"),
        ("hi", 0.5, "piece 3: interval endpoints out of order"),
        ("lo", math.inf, "piece 3: interval endpoints must be finite"),
        ("hi", math.nan, "piece 3: interval endpoints must be finite"),
    ])
    def test_parse_errors_name_the_piece(self, capsys, tmp_path, field, value, message):
        path, data = self._bound_pieces(capsys, tmp_path)
        if value == "missing":
            del data["pieces"][3][field]
        else:
            data["pieces"][3][field] = value
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "verify", "--certificate", str(path),
                                 "--f", "sin(x)")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith(f"error: malformed certificate: {message}")

    @pytest.mark.parametrize("lo,hi", [(1, 0), (0, "Infinity"), ("-Infinity", 0), ("NaN", 1)])
    def test_single_bad_piece_is_a_data_error(self, capsys, tmp_path, lo, hi):
        path = tmp_path / "cert.json"
        path.write_text('{"kind": "sign", "target": 2, "side": "below", "pieces": '
                        f'[{{"lo": {lo}, "hi": {hi}, "s": 0, "fs": 0, "delta": 1}}]}}')
        code, out, err = run_cli(capsys, "verify", "--certificate", str(path), "--f", "x")
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error: malformed certificate: piece 0: interval endpoints")


class TestUnwritablePaths:
    @pytest.mark.parametrize("argv", [
        ["partition", "--gauge", "const:0.3", "--interval", "0", "1", "--output", "{bad}"],
        ["certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0", "3",
         "--output", "{bad}"],
        ["root", "--f", "x^2-2", "--interval", "1", "2", "--trace", "{bad}"],
        ["root", "--f", "x^2+1", "--interval", "-1", "1", "--trace", "{bad}"],
        ["certify", "--f", "x^2-2", "--no-root", "0", "--interval", "1", "2",
         "--trace", "{bad}"],
    ])
    def test_exit_cantcreat(self, capsys, tmp_path, argv):
        bad = str(tmp_path / "missing" / "x.out")
        code, out, err = run_cli(capsys, *[a.format(bad=bad) for a in argv])
        assert code == EXIT_CANTCREAT
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1

    @pytest.mark.parametrize("trace", [False, True])
    def test_engine_gets_a_trace_list_only_with_trace_flag(self, capsys, tmp_path,
                                                           monkeypatch, trace):
        seen = []
        real = analysis.bound_certificate

        def spy(*args, trace=None, **kwargs):
            seen.append(trace)
            return real(*args, trace=trace, **kwargs)

        monkeypatch.setattr(analysis, "bound_certificate", spy)
        argv = ["certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0", "3"]
        if trace:
            argv += ["--trace", str(tmp_path / "t.jsonl")]
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert (seen[0] is not None) == trace


class TestNegativeExponents:
    def test_root_y(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--f", "x", "--y", "-1e-3",
                               "--interval", "-1", "1")
        assert code == EXIT_OK
        assert abs(json.loads(out)["c"] + 1e-3) <= 1e-5

    def test_certify_bound(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--f", "x-1", "--bound", "-1E-3",
                               "--interval", "0", "0.5")
        assert code == EXIT_OK
        assert json.loads(out)["target"] == -1e-3

    def test_certify_no_root(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--f", "x", "--no-root", "-1e-3",
                               "--interval", "0", "1")
        assert code == EXIT_OK
        assert json.loads(out)["side"] == "above"

    @pytest.mark.parametrize("lo", ["-1e-3", "-2.5e+1", "-.5e0", "-1.e-2"])
    def test_extremum_interval(self, capsys, lo):
        code, out, _ = run_cli(capsys, "extremum", "--max", "--f", "x",
                               "--interval", lo, "3", "--tol", "1e-4")
        assert code == EXIT_OK
        assert json.loads(out)["lo"] == 3.0

    def test_option_name_still_an_option(self, capsys):
        code, _, _ = run_cli(capsys, "root", "--f", "x", "--y", "-e3",
                             "--interval", "-1", "1")
        assert code == EXIT_USAGE


class TestDeterminismAndMisc:
    def test_byte_identical_outputs(self, capsys):
        fixed = [
            ("partition", "--gauge", "const:0.3", "--interval", "0", "1"),
            ("root", "--f", "x^2-2", "--y", "0", "--interval", "1", "2"),
            ("extremum", "--max", "--f", "sin(x)", "--interval", "0", "3.14",
             "--tol", "1e-3"),
            ("certify", "--f", "x", "--no-root", "2", "--interval", "0", "1"),
        ]
        for argv in fixed:
            _, out1, _ = run_cli(capsys, *argv)
            _, out2, _ = run_cli(capsys, *argv)
            assert out1 == out2

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "bogus")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, "partition")
        assert code == EXIT_USAGE

    def test_env_max_steps(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUGEKIT_MAX_STEPS", "10")
        code, out, _ = run_cli(capsys, "partition", "--gauge", "const:1e-5",
                               "--interval", "0", "1", "--strategy", "creep")
        assert code == EXIT_PARTITION_FAILED
        assert json.loads(out)["stall"]["cells_emitted"] == 10

    @pytest.mark.parametrize("env", [None, "10"])
    @pytest.mark.parametrize("argv", [
        ["partition", "--gauge", "const:1e-5", "--interval", "0", "1", "--strategy", "creep",
         "--max-cells", "0"],
        ["root", "--f", "x", "--y", "0.5", "--interval", "0", "1", "--max-steps", "0"],
        ["certify", "--f", "x", "--no-root", "2", "--interval", "0", "1", "--max-steps", "0"],
    ])
    def test_zero_budget_is_rejected(self, capsys, monkeypatch, env, argv):
        if env is None:
            monkeypatch.delenv("GAUGEKIT_MAX_STEPS", raising=False)
        else:
            monkeypatch.setenv("GAUGEKIT_MAX_STEPS", env)
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_DATA
        assert out == ""
        assert "caps must be positive" in err

    def test_env_max_steps_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUGEKIT_MAX_STEPS", "zero")
        code, _, _ = run_cli(capsys, "root", "--f", "x", "--y", "0.5",
                             "--interval", "0", "1")
        assert code == EXIT_DATA

    def test_csv_format(self, capsys):
        code, out, err = run_cli(capsys, "partition", "--gauge", "const:0.5",
                                 "--interval", "0", "1", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "lo,hi,tag"
        assert "lossy" in err

    def test_human_format(self, capsys):
        code, out, _ = run_cli(capsys, "root", "--f", "x", "--y", "0.5",
                               "--interval", "0", "1", "--format", "human")
        assert code == EXIT_OK
        assert "c = " in out

    def test_subprocess_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "gaugekit", "partition", "--gauge", "const:0.5",
             "--interval", "0", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["cells"]


class TestClosedStdout:
    def test_in_process(self, capsys, monkeypatch):
        class ClosedPipe(io.TextIOBase):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["partition", "--gauge", "const:0.3", "--interval", "0", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_CANTCREAT
        assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_reader_gone(self):
        # with stdout buffered, the write fails at the flush rather than at write()
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gaugekit", "partition", "--gauge", "const:0.3",
                 "--interval", "0", "1"],
                stdout=w, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(w)
        assert proc.returncode == EXIT_CANTCREAT
        assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


_TOO_DEEP = {"sum-5000": "+".join(["x"] * 5000),
             "parens-1000": "(" * 1000 + "x" + ")" * 1000,
             "sin-1000": "sin(" * 1000 + "x" + ")" * 1000}


class TestDeepNesting:
    FLAGS = {
        "root": lambda f: ["root", "--f", f, "--y", "0.5", "--interval", "0", "1"],
        "certify": lambda f: ["certify", "--f", f, "--bound", "1e9", "--interval", "0", "1"],
        "extremum": lambda f: ["extremum", "--max", "--f", f, "--interval", "0", "1"],
        "gauge": lambda f: ["partition", "--gauge", "expr:0.1+" + f, "--interval", "0", "1"],
    }

    @pytest.mark.parametrize("shape", sorted(_TOO_DEEP))
    @pytest.mark.parametrize("where", sorted(FLAGS))
    def test_too_deep_is_a_data_error(self, capsys, where, shape):
        code, out, err = run_cli(capsys, *self.FLAGS[where](_TOO_DEEP[shape]))
        assert code == EXIT_DATA
        assert out == ""
        assert err == "error: expression nested too deeply\n"

    @pytest.mark.parametrize("argv", [
        ["root", "--f", "+".join(["x"] * 500), "--y", "250", "--interval", "0", "1"],
        ["root", "--f", "(" * 100 + "x" + ")" * 100, "--y", "0.5", "--interval", "0", "1"],
        ["partition", "--gauge", "expr:0.1+" + "+".join(["x"] * 500), "--interval", "0", "1"],
        ["partition", "--gauge", "expr:0.1+" + "(" * 100 + "x" + ")" * 100,
         "--interval", "0", "1"],
    ], ids=["root-sum-500", "root-parens-100", "gauge-sum-500", "gauge-parens-100"])
    def test_moderate_depth_still_runs(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["check", "--partition", "{path}", "--gauge", "const:1"],
        ["verify", "--certificate", "{path}", "--f", "x"],
    ])
    def test_deeply_nested_json_is_a_data_error(self, capsys, tmp_path, argv):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert code == EXIT_DATA
        assert out == ""
        assert err.startswith("error: ") and "recursion" in err and err.count("\n") == 1


    def test_other_deep_recursion_does_not_blame_an_expression(self, capsys):
        # bisecting toward a gauge of 1e-300 recurses about 1,000 levels deep
        code, out, err = run_cli(capsys, "partition", "--gauge", "const:1e-300",
                                 "--strategy", "bisect", "--max-depth", "2000",
                                 "--interval", "0", "1")
        assert code == EXIT_DATA
        assert out == ""
        assert err == "error: input nested too deeply (recursion limit)\n"


class TestOutputOpenedFirst:
    @pytest.mark.parametrize("argv,module,name", [
        (["partition", "--gauge", "const:0.3", "--interval", "0", "1"],
         cousin, "fine_partition"),
        (["certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0", "3"],
         analysis, "bound_certificate"),
    ])
    def test_unwritable_output_fails_before_the_run(self, capsys, tmp_path, monkeypatch,
                                                    argv, module, name):
        def must_not_run(*args, **kwargs):
            raise AssertionError(f"{name} ran before --output was opened")

        monkeypatch.setattr(module, name, must_not_run)
        bad = str(tmp_path / "missing" / "x.out")
        code, out, err = run_cli(capsys, *argv, "--output", bad)
        assert code == EXIT_CANTCREAT
        assert out == ""
        assert err.startswith("error: cannot write output file") and err.count("\n") == 1

    def test_run_without_payload_leaves_the_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("keep\n")
        code, out, _ = run_cli(capsys, "root", "--f", "log(x)", "--interval", "0", "1",
                               "--output", str(path))
        assert code == EXIT_DATA
        assert out == ""
        assert path.read_text() == "keep\n"

    def test_output_to_a_device(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--gauge", "const:0.3",
                               "--interval", "0", "1", "--output", "/dev/null")
        assert code == EXIT_OK
        assert out == ""

    def test_output_to_a_pipe(self, tmp_path):
        # /dev/stdout on a pipe cannot be truncated; the payload still goes through
        proc = subprocess.run(
            [sys.executable, "-m", "gaugekit", "partition", "--gauge", "const:0.5",
             "--interval", "0", "1", "--output", "/dev/stdout"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cells"]

    def test_payload_replaces_a_longer_file(self, capsys, tmp_path):
        argv = ["partition", "--gauge", "const:0.3", "--interval", "0", "1"]
        _, expected, _ = run_cli(capsys, *argv)
        path = tmp_path / "out.json"
        path.write_text("z" * 10_000)
        code, out, _ = run_cli(capsys, *argv, "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text() == expected


class TestParserReuse:
    """``main`` parses every call with one parser, built on its first call."""

    SEQUENCE = [
        ["partition", "--gauge", "const:0.3", "--interval", "0", "1", "--format", "csv"],
        ["certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0", "3"],
        ["partition", "--gauge", "const:0.3"],  # usage error: --interval is missing
        ["check", "--partition", "{partition}", "--gauge", "const:0.2"],
        ["root", "--f", "x^2-", "--interval", "1", "2"],  # data error: bad expression
        ["root", "--f", "x^2-2", "--interval", "1", "2", "--format", "human"],
        ["certify", "--f", "x", "--no-root", "2", "--bound", "3",
         "--interval", "0", "1"],  # usage error: exclusive flags
        ["verify", "--certificate", "{certificate}", "--f", "sin(x)"],
        ["extremum", "--min", "--f", "x^2", "--interval", "-1", "1", "--tol", "1e-3"],
        ["partition", "--gauge", "const:0.3", "--interval", "0", "1", "--format", "xml"],
        ["partition", "--gauge", "pw:0:0.5,0.5:0.25", "--interval", "0", "1",
         "--strategy", "bisect"],
    ]

    def test_shared_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, tmp_path):
        files = {"partition": tmp_path / "part.json", "certificate": tmp_path / "cert.json"}
        run_cli(capsys, "partition", "--gauge", "const:0.3", "--interval", "0", "1",
                "--output", str(files["partition"]))
        run_cli(capsys, "certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0", "3",
                "--output", str(files["certificate"]))
        argvs = [[a.format(**files) for a in argv] for argv in self.SEQUENCE]
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())

        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run_cli(capsys, *argv)[:2])
        assert len(built) == len(argvs)

        monkeypatch.setattr(cli, "_parser", None)
        shared = [run_cli(capsys, *argv)[:2] for argv in argvs]
        assert len(built) == len(argvs) + 1
        assert shared == fresh
        assert [code for code, _ in shared] == [
            EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_CHECK_FAILED, EXIT_DATA, EXIT_OK,
            EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_no_parser_is_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import gaugekit.cli as c; print(c._parser)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "None\n"
