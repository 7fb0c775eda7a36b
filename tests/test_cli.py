import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from toricmirror import cli, g_function, lp, oracle, parse_fan, validate
from toricmirror.cli import main

CHAIN3 = ["--fan", "chain3"]
F2 = ["--fan", "f2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_text(capsys):
    code, out, err = run(capsys, "validate", *CHAIN3, "--show-permutation")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "internal ray order: [0, 1, 2, 3, 4, 5, 6, 7]",
        "fan OK: dim 2, 8 rays, 8 maximal cones",
        "curve-class rank: 6",
        "ample weight: (1, 3, 6, 4, 3, 1)",
        "semi-Fano: yes",
    ]


def test_fixture_name_fallback(capsys, tmp_path):
    # a real path wins; otherwise the packaged fixture of that base name
    code, out, _ = run(capsys, "g", "--fan", "fixtures/p2.json", "--ray", "1",
                       "--order", "8")
    assert code == 0 and out == "g_1 = 0\n"
    custom = tmp_path / "p2.json"
    custom.write_text('{"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]}')
    code, out, _ = run(capsys, "validate", "--fan", str(custom))
    assert code == 0 and "dim 1" in out


def test_delta_and_gw_text(capsys):
    code, out, _ = run(capsys, "delta", *CHAIN3, "--order", "6", "--ray", "1")
    assert code == 0
    assert out == "delta_1 = q1 + q1^-1 q2 + q2^-1 q3\n"
    code, out, _ = run(capsys, "gw", *CHAIN3, "--order", "6", "--ray", "1")
    assert out.splitlines() == [
        "n_1(beta_1) = 1",
        "n_1(beta_1 + (1, 0, 0, 0, 0, 0)) = 1",
        "n_1(beta_1 + (-1, 1, 0, 0, 0, 0)) = 1",
        "n_1(beta_1 + (0, -1, 1, 0, 0, 0)) = 1",
    ]


def test_mirror_text(capsys):
    code, out, _ = run(capsys, "mirror", *F2, "--order", "4")
    assert out.splitlines() == [
        "q1 = qc1 (1 + 2·qc1 + 5·qc1^2 + 14·qc1^3 + 42·qc1^4)",
        "q2 = qc2 (1 - qc1 - qc1^2 - 2·qc1^3 - 5·qc1^4)",
    ]
    code, out, _ = run(capsys, "inverse-mirror", *F2, "--order", "4")
    assert out.splitlines() == [
        "qc1 = q1 (1 - 2·q1 + 3·q1^2 - 4·q1^3 + 5·q1^4)",
        "qc2 = q2 (1 + q1)",
    ]


def test_potential_commands(capsys):
    code, out, _ = run(capsys, "potential", *F2, "--order", "4")
    assert out.splitlines() == [
        "[z1^-1 z2^2] q1",
        "[z2^-1] q2",
        "[z2] 1 + q1",
        "[z1] 1",
    ]
    code, tilde, _ = run(capsys, "hori-vafa", *F2, "--order", "4",
                         "--form", "tilde")
    assert tilde == out
    code, plain, _ = run(capsys, "hori-vafa", *F2, "--order", "4",
                         "--form", "plain")
    assert plain.splitlines()[0] == "[z1^-1 z2^2] q1 - 2·q1^2 + 3·q1^3 - 4·q1^4"


def test_json_output_matches_library(capsys, f2):
    code, out, _ = run(capsys, "g", *F2, "--ray", "1", "--order", "6",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "g" and doc["order"] == "6"
    assert doc["series"]["terms"] == g_function(f2, 1, 6).to_records()


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "walls", *CHAIN3, "--format", "json")
    _, second, _ = run(capsys, "walls", *CHAIN3, "--format", "json")
    assert first == second
    json.loads(first)


def test_seidel_fan_roundtrips(capsys):
    code, out, _ = run(capsys, "seidel-fan", "--fan", "p2", "--ray", "0",
                       "--sign", "minus")
    assert code == 0
    ctx = validate(parse_fan(out))
    assert ctx.n == 3


def test_exit_codes(capsys, tmp_path):
    assert run(capsys, "validate", "--fan", "missing-fan")[0] == 1
    assert run(capsys, "delta", *CHAIN3, "--ray", "99", "--order", "4")[0] == 1
    assert run(capsys, "delta", *CHAIN3, "--ray", "1", "--order", "-2")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    bad = tmp_path / "half.json"
    bad.write_text('{"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}')
    code, _, err = run(capsys, "validate", "--fan", str(bad))
    assert code == 1 and "error:" in err


def test_non_semifano_is_a_validation_error(capsys, tmp_path):
    f3 = tmp_path / "f3.json"
    f3.write_text(json.dumps({
        "dim": 2, "rays": [[1, 0], [0, 1], [-1, 3], [0, -1]],
        "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    code, _, err = run(capsys, "semifano", "--fan", str(f3))
    assert code == 0      # asking the question is fine
    code, _, err = run(capsys, "g", "--fan", str(f3), "--ray", "1")
    assert code == 1 and "semi-Fano" in err


def test_check_all(capsys):
    code, out, _ = run(capsys, "check-all", *F2, "--order", "6")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines)
    assert "PASS roundtrip" in lines and "PASS oracle" in lines
    assert len(lines) == 9


def test_check_all_on_a_double_seidel_fourfold(capsys, tmp_path):
    # the Seidel fan of a Seidel fan of f2 is a semi-Fano 4-fold: the suite,
    # support-vanishing included, runs in dimension 4
    first, second = tmp_path / "s.json", tmp_path / "s2.json"
    code, out, _ = run(capsys, "seidel-fan", *F2, "--ray", "1", "--sign", "plus")
    first.write_text(out)
    code, out, _ = run(capsys, "seidel-fan", "--fan", str(first), "--ray", "0",
                       "--sign", "plus")
    second.write_text(out)
    assert validate(parse_fan(out)).n == 4
    code, out, _ = run(capsys, "check-all", "--fan", str(second), "--order", "4")
    assert code == 0
    assert out.splitlines() == ["PASS " + name for name in (
        "roundtrip", "product-identity", "log-identity", "derivative-identity",
        "oracle", "potential-equality", "support-vanishing", "extended-factors",
        "fano-triviality")]


def test_check_all_enumerates_each_class_set_once(capsys, monkeypatch):
    # every (ray, order) constraint system reaches the integer-point scan once
    real = lp.integer_points
    systems = []

    def spy(cons, nvars):
        systems.append(tuple(cons))
        return real(cons, nvars)

    monkeypatch.setattr(lp, "integer_points", spy)
    code, out, _ = run(capsys, "check-all", *F2, "--order", "4")
    assert code == 0
    assert systems and len(systems) == len(set(systems))


def test_check_all_reports_failures(capsys, monkeypatch):
    from toricmirror.oracle import i_one_over_z as real
    from toricmirror.series import QSeries

    def broken(ctx, order):
        coeffs = list(real(ctx, order))
        coeffs[0] = QSeries.one(ctx.ring, order)
        return tuple(coeffs)

    monkeypatch.setattr(oracle, "i_one_over_z", broken)
    code, out, err = run(capsys, "oracle-check", *F2, "--order", "4")
    assert code == 2 and "MISMATCH" in out and "check failed" in err
    code, out, err = run(capsys, "check-all", *F2, "--order", "4")
    assert code == 2
    assert "FAIL oracle" in out
    # the suite stops at the first failing property
    assert "potential-equality" not in out


def test_min_classes_raises_order(capsys):
    code, out, _ = run(capsys, "g", *F2, "--ray", "1", "--order", "1",
                       "--min-classes", "3")
    assert code == 0
    assert out == "g_1 = qc1 + 3/2·qc1^2 + 10/3·qc1^3\n"


def test_basis_cone_flag(capsys):
    code, out, _ = run(capsys, "validate", *CHAIN3, "--basis-cone", "4,5",
                       "--show-permutation")
    assert code == 0
    assert out.splitlines()[0] == "internal ray order: [4, 5, 0, 1, 2, 3, 6, 7]"
    code, out, _ = run(capsys, "delta", *CHAIN3, "--basis-cone", "4,5",
                       "--order", "6", "--ray", "1")
    assert out == "delta_1 = q1 q2^-2 q3 + q1 q2^-1 q3^-1 q4 + q1 q2^-1 q4^-1\n"


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toricmirror", "g", "--fan", "p2",
         "--ray", "1", "--order", "8"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "g_1 = 0\n"


def test_closed_stdout_exits_1_with_nothing_on_stderr():
    # the reader closes the pipe long before the interpreter has started
    with subprocess.Popen(
            [sys.executable, "-m", "toricmirror", "potential", "--fan", "chain3",
             "--order", "10"], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert err == b""
    assert code == 1


def test_min_classes_out_of_reach_is_an_error(capsys):
    # p2 is Fano: no class ever contributes, so the bounded search gives up
    code, out, err = run(capsys, "g", "--fan", "p2", "--ray", "1", "--order", "1",
                         "--min-classes", "1")
    assert code == 1 and out == ""
    assert err == ("error: --min-classes 1 not reached for ray 1: "
                   "found 0 classes up to order 49\n")
    code, out, err = run(capsys, "delta", *F2, "--ray", "0", "--order", "1",
                         "--min-classes", "1", "--format", "json")
    assert code == 1 and out == ""
    assert err == ("error: --min-classes 1 not reached for ray 0: "
                   "found 0 classes up to order 49\n")


def test_min_classes_help_names_the_gij_index(capsys):
    # gij has no --ray; its bounded search runs on --i
    with pytest.raises(SystemExit):
        main(["gij", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "--i" in text.rsplit("--min-classes K", 1)[1]


def _subcommands(parser):
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _arguments(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required)
            for a in parser._actions]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_one_command_parser_matches_the_full_parser(name):
    full = _subcommands(cli.build_parser())[name]
    alone = _subcommands(cli.build_parser(name))
    assert list(alone) == [name]
    assert _arguments(alone[name]) == _arguments(full)
    assert alone[name].format_help() == full.format_help()


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def spy(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", spy)
    assert run(capsys, "validate", *CHAIN3)[0] == 0
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
    assert built == ["validate", None, None]


def test_top_level_help_and_bad_commands_list_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name, (help_text, _, _) in cli.COMMANDS.items():
        assert f"{name} {help_text}" in text
    code, _, err = run(capsys, "frobnicate")
    listed = err.split("choose from", 1)[1].split(",")
    assert code == 1 and [c.strip(" '()\n") for c in listed] == list(cli.COMMANDS)
    code, _, err = run(capsys)
    assert code == 1 and err == "error: the following arguments are required: command\n"


def test_load_fan_resolves_paths_and_fixture_names(tmp_path, monkeypatch, fixture_text):
    chain3, p2 = parse_fan(fixture_text("chain3")), parse_fan(fixture_text("p2"))
    packaged = os.path.join(os.path.dirname(cli.__file__), "fixtures", "chain3.json")
    monkeypatch.chdir(tmp_path)
    for path in (packaged, "chain3", "chain3.json", "fixtures/chain3.json", "chain3/",
                 "./chain3.json"):
        assert cli.load_fan(path) == chain3, path
    # a real path wins over the packaged fixture of that name
    (tmp_path / "chain3.json").write_text(fixture_text("p2"))
    assert cli.load_fan("chain3.json") == p2
    assert cli.load_fan(str(tmp_path / "chain3.json")) == p2
    assert cli.load_fan("chain3") == chain3
    with pytest.raises(OSError, match="^fan file not found: nowhere/missing.json$"):
        cli.load_fan("nowhere/missing.json")


HEAVY_MODULES = ("dataclasses", "inspect", "pathlib", "importlib.resources", "typing")


def test_cold_import_leaves_out_heavy_modules():
    # -S: no site module, which may preload some of these on its own
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import toricmirror.cli; "
            "print(*[m for m in sys.argv[2:] if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code, src, *HEAVY_MODULES],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cold_chain3_delta_at_order_20_runs_in_under_4_s():
    # chain3's delta stabilises by order 4; order 20 prints the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from toricmirror.cli import main; "
            "sys.exit(main(sys.argv[2:]))")
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-E", "-c", code, src, "delta", *CHAIN3,
                           "--ray", "2", "--order", "20"], capture_output=True, timeout=120)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "6fca07bce55b396e0d765e9b50b2facf860021040ba366b1201fd5a02a89b661")
    assert elapsed < 4.0, f"took {elapsed:.2f} s"
