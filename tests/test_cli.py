"""Command-line contract: exit codes, output shapes, JSON round trips."""
import gc
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import gsoscheck
from gsoscheck import gen
from gsoscheck.checker import CampaignConfig
from gsoscheck.cli import build_parser, execute, main
from gsoscheck.states import Store


def run_cli(argv):
    return execute(argv)


def test_run_two_steps_then_termination(capsys):
    code = main(["run", "--lang", "while", "--term", "(seq skip skip)",
                 "--input", "{}", "--fuel", "10", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "terminated after 2 step(s)" in out
    # one small step then a termination step, in judgment notation
    assert "⟨{}, (seq skip skip)⟩ → ⟨{}, skip⟩" in out
    assert "⟨{}, skip⟩ ⇓ {}" in out


def test_the_package_runs_as_a_module():
    # `python -m gsoscheck` is the command line of cli.main
    argv = ["run", "--lang", "while", "--term", "(seq skip skip)", "--input", "{}"]
    src = str(Path(gsoscheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gsoscheck", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    code, _, lines = execute(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "".join(
        line + "\n" for line in lines), "")
    assert code == 0


def test_closed_output_pipe_ends_quietly_with_the_commands_code():
    # the reader takes one line and closes the pipe, as `| head -1` does,
    # while the command still has about 1 MB of trace to print
    src = str(Path(gsoscheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gsoscheck.cli", "run", "--lang", "while",
         "--term", "(while (lit 1) skip)", "--input", "{}", "--fuel", "20000", "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    assert first.decode().startswith("⟨{}, (while (lit 1) skip)⟩ →")


def test_run_low_example1_compiled(capsys):
    term = "(instr (br (not (lt (var 0) (lit 2))) 3) (assign 1 (add (var 1) (lit 1))) (br (lit 1) -2))"
    code = main(["run", "--lang", "low", "--term", term,
                 "--input", "({0:5}, 0)", "--fuel", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "terminated" in out and "({0:5}, 3)" in out


def test_run_whileb_frame_return(capsys):
    code = main(["run", "--lang", "while-b", "--term", "(seq frame return)",
                 "--input", "[]", "--fuel", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "terminated" in out and "[]" in out


def test_run_out_of_fuel(capsys):
    code = main(["run", "--lang", "while", "--term", "(while (lit 1) skip)",
                 "--input", "{}", "--fuel", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "out of fuel after 7 step(s)" in out


def test_compile_prints_low_notation(capsys):
    code = main(["compile", "--compiler", "flatten-low", "--term",
                 "(while (lt (var 0) (lit 2)) (assign 1 (add (var 1) (lit 1))))"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "br !(var 0 < 2) 3 ;; assign 1 (var 1 + 1) ;; br (lit 1) -2"


def test_compile_sandbox(capsys):
    code = main(["compile", "--compiler", "sandbox", "--term", "skip"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "(sandbox skip)"


def test_compile_identity_stack(capsys):
    code = main(["compile", "--compiler", "embed-stack", "--term", "frame"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "frame"


def test_parse_error_exits_2(capsys, tmp_path):
    assert main(["run", "--lang", "while", "--term", "(seq skip",
                 "--input", "{}"]) == 2
    for lang, state in (("while", "{0:x}"), ("while", "{y:1}"), ("stack", "({}, z)"),
                        ("stack", "({})"), ("while-b", "[[1,q]]")):
        assert main(["run", "--lang", lang, "--term", "skip", "--input", state]) == 2
    assert main(["run", "--lang", "nosuch", "--term", "skip", "--input", "{}"]) == 2
    assert main(["compile", "--compiler", "nosuch", "--term", "skip"]) == 2
    for cmd in ("bisim", "ctx-closure"):
        assert main([cmd, "--lang", "nosuch", "--left", "skip", "--right", "skip"]) == 2
    assert main(["laws", "--lang", "nosuch"]) == 2
    assert main(["preserve", "--compiler", "nosuch"]) == 2
    pairs = tmp_path / "pairs.json"
    # an empty list would check nothing and report a preserved compiler
    for data in ([{"left": "skip"}], [["skip", "skip"]], [{"left": "skip", "right": 1}],
                 {"left": "skip", "right": "skip"}, []):
        pairs.write_text(json.dumps(data))
        assert main(["preserve", "--compiler", "embed-flag", "--pairs", str(pairs)]) == 2
    report = tmp_path / "report.json"
    for data in ({"command": ["laws", "--lang", "while"]},
                 {"command": "laws --lang while", "verdict": "pass"},
                 {"command": ["laws", 1], "verdict": "pass"}):
        report.write_text(json.dumps(data))
        assert main(["replay", "--report", str(report)]) == 2


# (language, a program valid in it, the input state, the error line it prints)
BAD_INPUT_STATES = [
    ("while-b", "(assign 1 (lit 5))", "[[1]]",  # a frame shorter than L
     "bad frame stack literal (frames of 2 naturals): '[[1]]'"),
    ("while-b", "skip", "[[1,2,3]]",  # a frame longer than L
     "bad frame stack literal (frames of 2 naturals): '[[1,2,3]]'"),
    ("stack", "skip", "({}, -1)",  # a negative stack pointer
     "stack pointer must not be negative: '({}, -1)'"),
    ("while", "skip", "{0:-3}",  # a negative value in a nat store
     "bad store literal: {0: -3}"),
    ("while-b", "skip", "[[1,2] junk [3,4]]",  # text beside the literal
     "bad frames state literal: '[[1,2] junk [3,4]]'"),
    ("while", "skip", "{0:1} # junk",  # a comment after the literal
     "bad store state literal: '{0:1} # junk'"),
    ("while-int", "skip", "{0:1.5}",  # a value that is no integer
     "bad store literal: {0: 1.5}"),
    ("while-int", "skip", "{0:x}",  # no literal at all
     "bad int-store state literal: '{0:x}'"),
    ("low", "(instr (nop))", "({}, 1, 2)",  # a triple, not a pair
     "bad pc state literal: '({}, 1, 2)'"),
    ("low", "(instr (nop))", "({0:-1}, 1)",  # a negative value in a pc store
     "bad store literal: {0: -1}"),
    ("stack", "skip", "({}, z)",  # a name for the stack pointer
     "bad sp state literal: '({}, z)'"),
    ("stack", "skip", "({})",  # a parenthesised store, not a pair
     "bad sp state literal: '({})'"),
    ("stack", "skip", "({0:-1}, -1)",  # the stack pointer is checked before the store
     "stack pointer must not be negative: '({0:-1}, -1)'"),
    ("while-b", "skip", "[[1,q]]",  # a name inside a frame
     "bad frames state literal: '[[1,q]]'"),
]


@pytest.mark.parametrize("lang, term, state, error", BAD_INPUT_STATES,
                         ids=["-".join(row[:3]) for row in BAD_INPUT_STATES])
def test_bad_input_state_exits_2(lang, term, state, error, capsys):
    assert main(["run", "--lang", lang, "--term", term, "--input", state]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_every_window_state_reads_back_from_its_show(langs, cfg):
    states = [(lang, s) for lang in langs.values() for s in gen.state_window(lang, cfg)]
    assert len(states) == 513
    for lang, s in states:
        assert lang.state_kind.parse(s.show(), lang.L) == s, (lang.name, s)


def _broken_campaign(monkeypatch, error: BaseException):
    from gsoscheck import cli

    def broken(cp, cfg):
        raise error

    monkeypatch.setattr(cli, "check_coherence", broken)


def test_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    # an internal error exits 3 with its traceback, neither 2 (usage) nor 1
    # (a counterexample)
    _broken_campaign(monkeypatch, KeyError("internal"))
    assert main(["coherence", "--compiler", "embed-flag"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("KeyError: 'internal'\n")


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    _broken_campaign(monkeypatch, ValueError("internal"))
    assert main(["coherence", "--compiler", "embed-flag"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("ValueError: internal\n")


@pytest.mark.parametrize("error", [SystemExit(5), KeyboardInterrupt()],
                         ids=["system-exit", "keyboard-interrupt"])
def test_an_exit_or_an_interrupt_is_not_an_internal_error(monkeypatch, capsys, error):
    _broken_campaign(monkeypatch, error)
    with pytest.raises(type(error)):
        main(["coherence", "--compiler", "embed-flag"])
    assert capsys.readouterr().err == ""


def test_ill_formed_term_exits_2(capsys):
    # obs is not a plain-while constructor
    assert main(["run", "--lang", "while", "--term", "(obs 1 skip)",
                 "--input", "{}"]) == 2


def test_open_or_ill_formed_programs_exit_2(tmp_path, capsys):
    # every command that takes a program rejects an open one, and one that
    # is ill-formed in its language, with a one-line error
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([{"left": "?x", "right": "skip"}]))
    for argv in (["bisim", "--lang", "while", "--left", "?x", "--right", "skip"],
                 ["ctx-closure", "--lang", "while", "--left", "?x", "--right", "skip"],
                 ["preserve", "--compiler", "sandbox", "--pairs", str(pairs)],
                 ["compile", "--compiler", "flatten-low", "--term", "?x"],
                 ["ctx-closure", "--lang", "while", "--left", "(assign 0 (lit -1))",
                  "--right", "skip"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("lang, term", [
    *(("while-sec", term) for term in (
        "(seq skip)", "(seq skip skip skip)", "(assign 0)", "(obs skip)", "(obs -1 skip)",
        "(sandbox 1 skip)", "(assign (lit 1) 0)", "(while skip (lit 0))",
        "(seq skip 0 skip)", "(foo skip)", "()", "0", "(instr)")),
    ("while-b", "(frame 1)"),
])
def test_malformed_program_exits_2(lang, term, capsys):
    state = "[]" if lang == "while-b" else "{}"
    assert main(["run", "--lang", lang, "--term", term, "--input", state]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, path", [
    (["preserve", "--compiler", "sandbox", "--pairs"], "."),
    (["replay", "--report"], "."),
    (["replay", "--report"], "latin1.json"),
], ids=["preserve-dir", "replay-dir", "replay-not-utf8"])
def test_unreadable_json_file_exits_2(argv, path, tmp_path, capsys):
    # a directory, or a file that is not UTF-8, is a usage error, not a crash
    (tmp_path / "latin1.json").write_bytes(b'{"command": ["laws"], "verdict": "caf\xe9"}')
    assert main([*argv, str(tmp_path / path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_compile_open_term_through_a_layer_map(capsys):
    for compiler, term, expected in (
            ("sandbox", "(seq ?x skip)", "(sandbox (seq ?x (sandbox skip)))"),
            ("embed-low-sec", "?x", "?x")):
        assert main(["compile", "--compiler", compiler, "--term", term]) == 0
        assert capsys.readouterr().out.strip() == expected


def test_coherence_exit_codes():
    code, report, _ = run_cli(["coherence", "--compiler", "sandbox", "--samples", "2000"])
    assert code == 0 and report.verdict == "pass"
    code, report, _ = run_cli(["coherence", "--compiler", "embed-flag"])
    assert code == 1 and report.verdict == "fail"
    assert report.witness["divergence"]["field"] == "label"


def _watch_the_collector(monkeypatch) -> list:
    """A list that gets whether the cycle collector is on each time a
    command body runs a campaign or a bisimulation, and each time ``replay``
    compares its two reports."""
    from gsoscheck import cli, reports

    seen = []

    def watched(real):
        def call(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)
        return call

    for name in ("check_coherence", "check_bisim"):
        monkeypatch.setattr(cli, name, watched(getattr(cli, name)))
    monkeypatch.setattr(reports.Report, "matches", watched(reports.Report.matches))
    return seen


COLLECTOR_CASES = {
    "pass": (["coherence", "--compiler", "sandbox", "--samples", "50"], 0),
    "fail": (["bisim", "--lang", "while", "--left", "(assign 0 (lit 1))",
              "--right", "(assign 0 (lit 2))"], 1),
    # the body raises IllFormed: the stack machine has no frame to assign in
    "ill-formed": (["bisim", "--lang", "stack", "--left", "(assign 0 (lit 1))",
                    "--right", "(seq (assign 0 (lit 1)) skip)"], 2),
    "replay": (["replay", "--report", "saved.json"], 0),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_a_command_body_runs_with_the_collector_paused(monkeypatch, capsys, tmp_path,
                                                      case, enabled):
    # execute pauses the cycle collector around the command body and then
    # gives the caller back its setting, also when the body raises and when
    # a replay runs one execute inside another
    argv, code = COLLECTOR_CASES[case]
    monkeypatch.chdir(tmp_path)
    if case == "replay":
        main(COLLECTOR_CASES["fail"][0] + ["--json"])
        (tmp_path / "saved.json").write_text(capsys.readouterr().out)
    seen = _watch_the_collector(monkeypatch)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen and not any(seen), seen


def test_coherence_json_replay_round_trip(tmp_path, capsys):
    code = main(["coherence", "--compiler", "embed-flag", "--json"])
    payload = capsys.readouterr().out
    assert code == 1
    data = json.loads(payload)
    assert data["verdict"] == "fail"
    assert data["config"]["seed"] == 0xC0FFEE
    path = tmp_path / "report.json"
    path.write_text(payload)
    assert main(["replay", "--report", str(path)]) == 0
    capsys.readouterr()


def test_replay_detects_tampering(tmp_path, capsys):
    code = main(["coherence", "--compiler", "embed-flag", "--json"])
    data = json.loads(capsys.readouterr().out)
    data["verdict"] = "pass"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    assert main(["replay", "--report", str(path)]) == 1
    capsys.readouterr()


def test_replay_rejects_a_saved_replay(tmp_path, capsys):
    # a report whose command is itself a replay names no campaign; replaying
    # one that names its own file would recurse without end
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"command": ["replay", "--report", str(path)],
                                "verdict": "identical"}))
    assert main(["replay", "--report", str(path)]) == 2
    assert "runs no campaign" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["--help"],
    ["coherence", "--compiler", "sandbox", "-h"],
], ids=["help", "trailing-h"])
def test_replay_rejects_a_command_that_argparse_ends(tmp_path, capsys, command):
    # help ends the parse with exit 0 before any campaign runs, so the replay
    # would have compared nothing
    path = tmp_path / "help.json"
    path.write_text(json.dumps({"command": command, "verdict": "pass"}))
    assert main(["replay", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "runs no campaign" in captured.err


def test_replay_names_a_saved_command_that_no_longer_parses(tmp_path, capsys):
    # coherence takes no --depth: argparse's own error says so, and the
    # replay's names the parse, not a missing campaign
    path = tmp_path / "old.json"
    command = ["coherence", "--compiler", "embed-flag", "--depth", "4"]
    path.write_text(json.dumps({"command": command, "verdict": "fail"}))
    assert main(["replay", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --depth 4" in err
    assert ("error: the saved command does not parse: coherence --compiler embed-flag"
            " --depth 4") in err
    assert "runs no campaign" not in err


def test_bisim_cli(capsys):
    a = "(while (var 0) (assign 0 (lit 0)))"
    b = "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"
    assert main(["bisim", "--lang", "while", "--left", a, "--right", b]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT" in out
    assert main(["bisim", "--lang", "while-flag", "--left", a, "--right", b,
                 "--depth", "4"]) == 1
    out = capsys.readouterr().out
    assert "DISTINGUISHED" in out and "{0:1}" in out
    # bisim samples nothing, but its config echoes every campaign default
    _, report, _ = execute(["bisim", "--lang", "while", "--left", a, "--right", b])
    assert report.config == CampaignConfig()._asdict()


def test_preserve_cli(tmp_path, capsys):
    pairs = [{
        "left": "(while (var 0) (assign 0 (lit 0)))",
        "right": "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))",
    }]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    assert main(["preserve", "--compiler", "embed-flag", "--pairs", str(path)]) == 1
    out = capsys.readouterr().out
    assert "  => target DISTINGUISHED at ['{0:1}'] (label: 1 vs 2)\n" in out
    assert main(["preserve", "--compiler", "sandbox", "--pairs", str(path)]) == 0
    capsys.readouterr()
    # a distinction on anything but the label names only its reason
    path.write_text(json.dumps([{"left": "(assign 0 (min (var 0) (lit 0)))",
                                 "right": "(assign 0 (lit 0))"}]))
    assert main(["preserve", "--compiler", "embed-int", "--pairs", str(path)]) == 1
    assert "  => target DISTINGUISHED at ['{0:-1}'] (state)\n" in capsys.readouterr().out


def test_preserve_skips_pairs_ill_formed_in_the_target():
    # the default pairs equivalent in the source read a frame at sp = 0 once
    # compiled to the stack machines; each is tallied, not a usage error
    for compiler in ("embed-stack", "embed-stack-clear"):
        code, report, lines = run_cli(["preserve", "--compiler", compiler])
        assert code in (0, 1)
        assert report.tallies["illformed"] == 8
        assert sum(line.endswith("=> target ill-formed") for line in lines) == 8


def test_ctx_closure_cli(capsys):
    a = "(while (var 0) (assign 0 (lit 0)))"
    b = "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"
    assert main(["ctx-closure", "--lang", "while", "--left", a, "--right", b,
                 "--samples", "60"]) == 0
    assert "closed" in capsys.readouterr().out


def test_laws_cli_single_language(capsys):
    assert main(["laws", "--lang", "while"]) == 0
    assert "while:" in capsys.readouterr().out


@pytest.mark.parametrize("frame_len, failing, exhausted", [("1", 3437, 3608), ("3", 4900, 5088)])
def test_stack_campaigns_at_other_frame_lengths(frame_len, failing, exhausted):
    # the flag sets both the languages' frame length and the windows': a
    # `frame` that leaves the old block in place fails, one that clears it passes
    argv = ["--samples", "10000", "--frame-len", frame_len]
    code, report, _ = execute(["coherence", "--compiler", "embed-stack", *argv])
    assert code == 1 and report.config["L"] == int(frame_len)
    assert report.tallies["cases_before"] == failing
    assert report.witness["case"]["term"] == "frame"
    assert report.witness["divergence"]["field"] == "state"
    code, report, _ = execute(["coherence", "--compiler", "embed-stack-clear", *argv])
    assert code == 0 and report.config["L"] == int(frame_len)
    assert report.tallies["exhausted"] and report.tallies["cases"] == exhausted


def test_demo_exit_codes(capsys):
    assert main(["demo", "example1"]) == 0
    assert main(["demo", "fig3"]) == 0
    capsys.readouterr()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["coherence"])  # missing --compiler
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["demo", "nosuchdemo"])
    assert e.value.code == 2
    # a flag the command does not read is a usage error, not a silent no-op
    for argv in (["demo", "fig4", "--samples", "5"],
                 ["replay", "--report", "r.json", "--seed", "3"],
                 ["compile", "--compiler", "sandbox", "--term", "skip", "--samples", "3"],
                 ["bisim", "--lang", "while", "--left", "skip", "--right", "skip",
                  "--samples", "5"],
                 ["bisim", "--lang", "while", "--left", "skip", "--right", "skip",
                  "--max-term-size", "2"],
                 # the fallback depth, not --depth, bounds coherence
                 ["coherence", "--compiler", "sandbox", "--depth", "4"],
                 ["laws", "--samples", "5"],
                 ["laws", "--depth", "4"],
                 ["ctx-closure", "--lang", "while", *WHILE_PAIR, "--max-term-size", "2"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv
    # a flag left out still sets its default, which the report echoes
    for argv, cfg in ((["coherence", "--compiler", "embed-flag", "--samples", "5"],
                       CampaignConfig(samples=5)),
                      (["laws", "--lang", "while"], CampaignConfig()),
                      (["ctx-closure", "--lang", "while", *WHILE_PAIR, "--samples", "5"],
                       CampaignConfig(samples=5))):
        assert execute(argv)[1].config == cfg._asdict(), argv


WHILE_PAIR = ["--left", "(while (var 0) (assign 0 (lit 0)))",
              "--right", "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"]


def test_every_budget_flag_defaults_to_the_config_default():
    # on a named tuple, CampaignConfig.seed is the field's getter; the
    # defaults are in _field_defaults
    from gsoscheck.cli import _BUDGETS

    defaults = CampaignConfig._field_defaults
    for argv in (["coherence", "--compiler", "sandbox"], ["laws"],
                 ["bisim", "--lang", "while", "--left", "skip", "--right", "skip"],
                 ["ctx-closure", "--lang", "while", *WHILE_PAIR],
                 ["preserve", "--compiler", "sandbox"]):
        args = build_parser().parse_args(argv)
        assert {name: getattr(args, name) for name in _BUDGETS} == {
            name: defaults[name] for name in _BUDGETS}, argv
        assert args.frame_len == defaults["L"], argv
    for argv in (["run", "--lang", "while", "--term", "skip", "--input", "{}"],
                 ["compile", "--compiler", "sandbox", "--term", "skip"]):
        assert build_parser().parse_args(argv).frame_len == defaults["L"], argv


@pytest.mark.parametrize("argv", [
    ["coherence", "--compiler", "sandbox", "--samples", "-1"],
    ["coherence", "--compiler", "sandbox", "--max-term-size", "-1"],
    ["preserve", "--compiler", "sandbox", "--depth", "-1"],
    ["coherence", "--compiler", "sandbox", "--store-cells", "-1"],
    ["coherence", "--compiler", "sandbox", "--max-value", "-1"],
    ["coherence", "--compiler", "embed-stack", "--sp-max", "-1"],
    ["coherence", "--compiler", "embed-stack", "--frame-len", "-1"],
    ["ctx-closure", "--lang", "while", *WHILE_PAIR, "--samples", "-1"],
    ["run", "--lang", "while", "--term", "skip", "--input", "{}", "--fuel", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_negative_budget_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "must not be negative: -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coherence", "--compiler", "flatten-low", "--max-term-size", "0"],
    ["ctx-closure", "--lang", "while", "--left", "skip", "--right", "skip",
     "--samples", "0"],
    ["ctx-closure", "--lang", "while-flag", *WHILE_PAIR, "--depth", "0"],
    ["preserve", "--compiler", "embed-flag", "--depth", "0"],
    ["coherence", "--compiler", "embed-stack", "--frame-len", "0"],
    # each compiler fails at the default window
    pytest.param(["coherence", "--compiler", "embed-stack", "--max-value", "0"],
                 id="coherence-embed-stack--max-value"),
    pytest.param(["coherence", "--compiler", "embed-int", "--max-value", "0"],
                 id="coherence-embed-int--max-value"),
    pytest.param(["coherence", "--compiler", "unsandbox", "--max-value", "0"],
                 id="coherence-unsandbox--max-value"),
    pytest.param(["coherence", "--compiler", "embed-int", "--store-cells", "0"],
                 id="coherence-embed-int--store-cells"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_zero_budget_exits_2(argv, capsys):
    # each of these passed at a zero budget having checked nothing, or
    # having checked only all-zero stores
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "must be at least 1: 0" in capsys.readouterr().err


def test_bad_seed_exits_2_naming_the_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["coherence", "--compiler", "sandbox", "--seed", "xyz"])
    assert e.value.code == 2
    assert "argument --seed: invalid seed value: 'xyz'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coherence", "--compiler", "embed-stack"],
    ["coherence", "--compiler", "embed-stack-clear"],
    ["preserve", "--compiler", "embed-stack"],
    ["bisim", "--lang", "stack-clear", "--left", "skip", "--right", "skip"],
    ["ctx-closure", "--lang", "stack", "--left", "skip", "--right", "skip",
     "--samples", "50"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_zero_max_value_on_stack_windows(argv, capsys):
    # a top value of 0 is a usage error on every command; a configuration
    # built with one still gets a stack window, whose wide stores hold only
    # nonzero values and so are empty, where they used to crash the draw
    with pytest.raises(SystemExit) as e:
        main(argv + ["--max-value", "0"])
    assert e.value.code == 2
    assert "must be at least 1: 0" in capsys.readouterr().err
    window = gen.stack_window(CampaignConfig(max_value=0))
    assert {st.store for st in window} == {Store.of({})}


def test_threads_flag_does_not_change_the_report():
    argv = ["coherence", "--compiler", "sandbox", "--samples", "2000", "--json"]
    reports = []
    for threads in ("1", "4"):
        code, report, _ = execute(argv + ["--threads", threads])
        assert code == 0
        reports.append({k: v for k, v in asdict(report).items()
                        if k not in ("command", "wall_time_s")})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["run", "--lang", "while", "--term", "skip", "--input", "{}"],
    ["coherence", "--compiler", "embed-flag", "--samples", "50"],
], ids=lambda argv: argv[0])
def test_an_abbreviated_json_flag_prints_the_report(argv, capsys):
    # argparse takes --js for --json, as it takes any unambiguous prefix
    reports = []
    for flag in ("--json", "--js"):
        main(argv + [flag])
        fields = json.loads(capsys.readouterr().out)
        assert fields.pop("command") == argv + [flag]
        del fields["wall_time_s"]
        reports.append(fields)
    assert reports[0] == reports[1]


def _nested_seqs(depth, leftmost):
    """``depth`` nodes on the longest path: nested `seq`s over `skip`s."""
    term = "skip"
    for _ in range(depth - 1):
        term = f"(seq {term} skip)" if leftmost else f"(seq skip {term})"
    return term


def _flat_low(length):
    return "(instr" + " (nop)" * (length - 1) + " (stop))"


@pytest.mark.parametrize("argv", [
    *(["run", "--lang", "while", "--term", _nested_seqs(400, leftmost), "--input", "{}"]
      for leftmost in (False, True)),
    ["bisim", "--lang", "while", "--left", "skip", "--right", _nested_seqs(400, False)],
    ["compile", "--compiler", "sandbox", "--term", _nested_seqs(400, True)],
    ["run", "--lang", "low", "--term", _flat_low(400), "--input", "({}, 0)"],
], ids=["run-right", "run-left", "bisim-right", "compile-left", "run-flat-low"])
def test_a_program_nested_too_deep_exits_2(argv, capsys):
    # past about 329 levels these ran out of stack with a traceback and exit 1
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_program_at_the_depth_bound_still_runs(capsys):
    from gsoscheck.terms import MAX_DEPTH

    right, left = _nested_seqs(MAX_DEPTH, False), _nested_seqs(MAX_DEPTH, True)
    for argv in (["run", "--lang", "while", "--term", right, "--input", "{}"],
                 ["run", "--lang", "low", "--term", _flat_low(MAX_DEPTH), "--input", "({}, 0)"],
                 ["bisim", "--lang", "while", "--left", left, "--right", right],
                 ["compile", "--compiler", "sandbox", "--term", left]):
        assert main(argv) == 0, argv[:2]
    assert capsys.readouterr().err == ""


def _balanced_seqs(levels, leaf):
    """A balanced tree of `seq`s ``levels`` deep, with 2 ** levels ``leaf``s."""
    if levels == 0:
        return leaf
    half = _balanced_seqs(levels - 1, leaf)
    return f"(seq {half} {half})"


def test_compile_flattens_a_shallow_program_of_1024_statements(capsys):
    # 11 deep in the source, 1,024 instructions flattened: the target check
    # ran out of stack with a traceback and exit 1
    term = _balanced_seqs(10, "(assign 0 (lit 1))")
    assert main(["compile", "--compiler", "flatten-low", "--term", term]) == 0
    out = capsys.readouterr().out
    assert out == " ;; ".join(["assign 0 (lit 1)"] * 1024) + "\n"


def test_preserve_refuses_pairs_that_compile_too_deep(tmp_path, capsys):
    # flattened, each program is an instruction chain 512 long: comparing the
    # pair ran out of stack with a traceback and exit 1
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"left": _balanced_seqs(9, "(assign 0 (lit 1))"),
                                 "right": _balanced_seqs(9, "(assign 0 (add (lit 0) (lit 1)))")}]))
    assert main(["preserve", "--compiler", "flatten-low", "--pairs", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: pair 0 compiles to a program nested deeper"
                            f" than 200 nodes\n")


def test_preserve_checks_the_deepest_programs_under_a_layer_map(tmp_path, capsys):
    # sandbox wraps each layer once, so a pair at the parser's depth bound
    # compiles to programs twice as deep, which the semantics still steps
    from gsoscheck.terms import MAX_DEPTH

    path = tmp_path / "pairs.json"
    path.write_text(json.dumps([{"left": _nested_seqs(MAX_DEPTH, True),
                                 "right": _nested_seqs(MAX_DEPTH, False)}]))
    assert main(["preserve", "--compiler", "sandbox", "--pairs", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("  => target equivalent\n")


# each subcommand's options in order, -h aside: option strings, dest,
# default, required, choices and whether the help is suppressed
OPTIONS = {
    "run": [
        (("--lang",), "lang", None, True, None, False),
        (("--term",), "term", None, True, None, False),
        (("--input",), "input", None, True, None, False),
        (("--fuel",), "fuel", 10000, False, None, False),
        (("--trace",), "trace", False, False, None, False),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "compile": [
        (("--compiler",), "compiler", None, True, None, False),
        (("--term",), "term", None, True, None, False),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "coherence": [
        (("--compiler",), "compiler", None, True, None, False),
        (("--mode",), "mode", "auto", False, ("open", "closed", "auto"), False),
        (("--samples",), "samples", 1000, False, None, False),
        (("--max-term-size",), "max_term_size", 4, False, None, False),
        (("--seed",), "seed", 12648430, False, None, False),
        (("--store-cells",), "store_cells", 2, False, None, False),
        (("--max-value",), "max_value", 3, False, None, False),
        (("--sp-max",), "sp_max", 3, False, None, False),
        (("--threads",), "threads", None, False, None, True),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "bisim": [
        (("--lang",), "lang", None, True, None, False),
        (("--left",), "left", None, True, None, False),
        (("--right",), "right", None, True, None, False),
        (("--depth",), "depth", 20, False, None, False),
        (("--seed",), "seed", 12648430, False, None, False),
        (("--store-cells",), "store_cells", 2, False, None, False),
        (("--max-value",), "max_value", 3, False, None, False),
        (("--sp-max",), "sp_max", 3, False, None, False),
        (("--threads",), "threads", None, False, None, True),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "ctx-closure": [
        (("--lang",), "lang", None, True, None, False),
        (("--left",), "left", None, True, None, False),
        (("--right",), "right", None, True, None, False),
        (("--samples",), "samples", 1000, False, None, False),
        (("--depth",), "depth", 20, False, None, False),
        (("--seed",), "seed", 12648430, False, None, False),
        (("--store-cells",), "store_cells", 2, False, None, False),
        (("--max-value",), "max_value", 3, False, None, False),
        (("--sp-max",), "sp_max", 3, False, None, False),
        (("--threads",), "threads", None, False, None, True),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "preserve": [
        (("--compiler",), "compiler", None, True, None, False),
        (("--pairs",), "pairs", None, False, None, False),
        (("--samples",), "samples", 1000, False, None, False),
        (("--max-term-size",), "max_term_size", 4, False, None, False),
        (("--depth",), "depth", 20, False, None, False),
        (("--seed",), "seed", 12648430, False, None, False),
        (("--store-cells",), "store_cells", 2, False, None, False),
        (("--max-value",), "max_value", 3, False, None, False),
        (("--sp-max",), "sp_max", 3, False, None, False),
        (("--threads",), "threads", None, False, None, True),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "laws": [
        (("--lang",), "lang", "all", False, None, False),
        (("--max-term-size",), "max_term_size", 4, False, None, False),
        (("--seed",), "seed", 12648430, False, None, False),
        (("--store-cells",), "store_cells", 2, False, None, False),
        (("--max-value",), "max_value", 3, False, None, False),
        (("--sp-max",), "sp_max", 3, False, None, False),
        (("--threads",), "threads", None, False, None, True),
        (("--frame-len",), "frame_len", 2, False, None, False),
        (("--json",), "json", False, False, None, False),
    ],
    "demo": [
        ((), "name", None, True, ("fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10",
                                  "sec6-fail", "sec6-pass", "example1", "sec3-context"), False),
        (("--json",), "json", False, False, None, False),
    ],
    "replay": [
        (("--report",), "report", None, True, None, False),
        (("--json",), "json", False, False, None, False),
    ],
}


def test_every_subcommand_keeps_its_options_in_order():
    import argparse

    (commands,) = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert {
        name: [(tuple(a.option_strings), a.dest, a.default, a.required,
                None if a.choices is None else tuple(a.choices), a.help == argparse.SUPPRESS)
               for a in p._actions if not isinstance(a, argparse._HelpAction)]
        for name, p in commands.choices.items()
    } == OPTIONS


def test_the_parser_is_built_once_and_keeps_no_state_between_command_lines():
    assert build_parser() is build_parser()
    # five cases miss embed-flag's label leak, which the default 1000 find
    runs = []
    for argv in (["coherence", "--compiler", "embed-flag", "--samples", "5"],
                 ["coherence", "--compiler", "embed-flag"]):
        code, report, _ = execute(argv)
        runs.append((code, report.config["samples"]))
    assert runs == [(0, 5), (1, 1000)]


# runs each command line of the JSON list in argv[1]; prints the order of
# the string set {"x0", "x1"} and, per line, its exit code, its text lines
# and its --json report without the wall time
_REPORTS_SCRIPT = """
import json, sys
from gsoscheck.cli import execute
out = []
for argv in json.loads(sys.argv[1]):
    code, report, lines = execute(argv)
    fields = json.loads(report.to_json())
    del fields["wall_time_s"]
    out.append([code, lines, fields])
json.dump([list({"x0", "x1"}), out], sys.stdout)
"""


def test_reports_do_not_depend_on_the_hash_seed():
    # string hashes, and so the order of any set of strings, change with
    # PYTHONHASHSEED, and the hashes of nodes, expressions, instructions,
    # variables and every machine state, stores included, are object
    # identities, which may differ from run to run: neither may reach an exit
    # code, a line or a report
    argvs = [
        ["coherence", "--compiler", "sandbox"],  # needs the fallback bisimulation
        ["coherence", "--compiler", "unsandbox"],
        ["coherence", "--compiler", "flatten-low", "--mode", "closed"],
        ["coherence", "--compiler", "embed-stack-clear"],  # stack states
        ["coherence", "--compiler", "embed-low-sec"],  # pc states
        ["ctx-closure", "--lang", "while", *WHILE_PAIR, "--samples", "200"],
        ["preserve", "--compiler", "embed-flag"],
        ["preserve", "--compiler", "embed-stack"],
        ["laws"],  # all nine languages
        ["bisim", "--lang", "while", *WHILE_PAIR],
        ["bisim", "--lang", "while-flag", *WHILE_PAIR, "--depth", "4"],
        ["demo", "fig6"],
        ["demo", "fig9"],  # frame stacks
        # int stores: clamped, with the fallback, then failing on a negative one
        ["coherence", "--compiler", "sandbox-int", "--samples", "6000"],
        ["coherence", "--compiler", "embed-int"],
        # closed terms whose continuation mismatches the normal form settles
        ["coherence", "--compiler", "sandbox", "--mode", "closed", "--max-term-size", "3"],
        # exhaustive over stack states: the later table variants of its while
        # layers, ill-formed inputs among them, are replayed, not evaluated
        ["coherence", "--compiler", "embed-stack-clear", "--samples", "10000"],
    ]
    src = str(Path(gsoscheck.__file__).resolve().parents[1])
    procs = []
    # seed 2 iterates both {"x0", "x1"} and {"x0", "x1", "x2"} in another
    # order than seed 0, so an order that reaches a report shows
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs.append(subprocess.Popen(
            [sys.executable, "-c", _REPORTS_SCRIPT, json.dumps(argvs)],
            stdout=subprocess.PIPE, text=True, env=env))
    orders, outs = [], []
    for proc in procs:
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        order, results = json.loads(out)
        orders.append(order)
        outs.append(results)
    assert orders[0] != orders[1]  # the two processes order string sets apart
    assert [code for code, _, _ in outs[0]] == [0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0]
    for argv, a, b in zip(argvs, *outs):
        assert a == b, argv


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_command_lines_parse():
    # the command lines perfbench/run.py passes, its suffix included
    bench = _load_perfbench("run")
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())
    assert workloads
    parser = build_parser()
    for name in workloads:
        for seed in (0, 7):
            for argv in bench.commands(name, seed):
                parser.parse_args(argv)


def test_benchmark_reports_match_expected():
    # every benchmark command line at benchmark seeds 0 and 1, run and
    # checked the way perfbench/run.py does, so a refactor that moves a
    # report fails here; seed 1 samples tables that seed 0 does not, and is
    # checked for the verdict class and `exhausted`
    bench = _load_perfbench("run")
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    for seed in (0, 1):
        for name in json.loads((PERFBENCH / "workloads.json").read_text()):
            for argv in bench.commands(name, seed):
                code, report, _ = execute(list(argv))
                op = {"argv": argv, "exit": code, "report": asdict(report)}
                assert bench.check_op(op, expected, seed) == [], argv


def test_benchmark_ctx_closure_applies_the_rule_once_per_layer_and_state(monkeypatch):
    # the benchmark's ctx-closure command line, its language's rule counted:
    # one memo for the whole check applies it once per (layer, state)
    from gsoscheck import cli
    from tests.test_semantics import counting_rule

    bench = _load_perfbench("run")
    (argv,) = bench.commands("ctx-closure", 0)
    registry, counts = cli.language_registry, []

    def counting_registry(*args, **kwargs):
        langs = dict(registry(*args, **kwargs))
        langs["while"], applied = counting_rule(langs["while"])
        counts.append(applied)
        return langs

    monkeypatch.setattr(cli, "language_registry", counting_registry)
    code, report, _ = execute(list(argv))
    assert code == 0 and report.verdict == "closed"
    (applied,) = counts
    assert sum(applied.values()) == len(applied) == 74_432


def test_every_report_echoes_its_command_and_time(tmp_path):
    saved = tmp_path / "report.json"
    _, report, _ = execute(["compile", "--compiler", "sandbox", "--term", "skip"])
    saved.write_text(report.to_json())
    argvs = [
        ["run", "--lang", "while", "--term", "skip", "--input", "{}"],
        ["compile", "--compiler", "sandbox", "--term", "skip", "--json"],
        ["coherence", "--compiler", "embed-flag", "--samples", "50"],
        ["bisim", "--lang", "while", "--left", "skip", "--right", "skip"],
        ["ctx-closure", "--lang", "while", "--left", "skip", "--right", "skip",
         "--samples", "5"],
        ["preserve", "--compiler", "sandbox", "--samples", "3"],
        ["laws", "--lang", "while"],
        ["demo", "example1"],
        ["replay", "--report", str(saved)],
    ]
    commands = next(a.choices for a in build_parser()._actions if a.dest == "cmd")
    assert sorted(argv[0] for argv in argvs) == sorted(commands)
    for argv in argvs:
        _, report, _ = execute(list(argv))
        assert report.command == argv
        assert report.wall_time_s > 0, argv


# SHA-256 of each demo's exit code, text lines and report: the report
# --json prints, less wall_time_s, echoing the command line run here
DEMO_DIGESTS = {
    "fig3": "6abd49475be39fc8f1412895ca52aaaac712292da4510eef3db1f70b616a2770",
    "fig4": "2366d8b972a96560e3c89fbae577e2a56110de1ac1ece0e8132da643d0663175",
    "fig5": "57869105e07b29cea0ad42e609bf3b752f0272caae47a150f505d331b301d469",
    "fig6": "8bc30115523edb245b2b695020264e1a2ce0b37b6a44851c7e57459eab598657",
    "fig8": "60774deb560297c02c4ed3000f3fb59db5c03a944265b83f4b63bd15b8b4b227",
    "fig9": "42610c44ccde9bb3d939871dd8f367d3cd258aeb7e70edf211167e067719ee4b",
    "fig10": "d49b489645ceeefccbb2d4763d1fd6b7a126f50eb98fbb46b7b73c2bf22fbc18",
    "sec6-fail": "a240dd1d68276daafaeba6f2529e6a9f4197946bd627c21482e33c8cb8e845d0",
    "sec6-pass": "5143009ef1a8175f1409c2ca15363503963a5633549f0c76df38495c2df4b5ad",
    "example1": "32060d2b925a24b6d2a5143632b88ab3a2261ecbb5173e881d32428ab62ee89d",
    "sec3-context": "1d82364b2825a71ffd0947c0383a46e0788897cc6ff5c592bcb393d2a9550841",
}


def test_all_demos_under_a_minute():
    import hashlib
    import time

    from gsoscheck.cli import DEMO_FNS

    assert list(DEMO_FNS) == list(DEMO_DIGESTS)
    t0 = time.monotonic()
    for name in DEMO_FNS:
        code, report, lines = execute(["demo", name])
        assert code == 0, name
        shown = json.loads(report.to_json())
        del shown["wall_time_s"]
        text = json.dumps([code, lines, shown], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == DEMO_DIGESTS[name], name
    assert time.monotonic() - t0 < 60


def test_seed_comes_only_from_the_command_line(tmp_path, capsys, monkeypatch):
    # a report echoes its command line, so a seed read from anywhere else
    # would make its replay differ
    monkeypatch.setenv("GSOSCHECK_SEED", "0x1234")
    assert main(["coherence", "--compiler", "embed-flag", "--json"]) == 1
    payload = capsys.readouterr().out
    assert json.loads(payload)["config"]["seed"] == CampaignConfig._field_defaults["seed"]
    path = tmp_path / "report.json"
    path.write_text(payload)
    monkeypatch.delenv("GSOSCHECK_SEED")
    assert main(["replay", "--report", str(path)]) == 0
    assert "identical" in capsys.readouterr().out


def test_sexpr_round_trip():
    from gsoscheck.terms import parse_term, print_term

    examples = [
        "skip",
        "(seq (assign 0 (lit 1)) skip)",
        "(obs 1 (assign 0 (var 0)))",
        "(sandbox (while (var 0) skip))",
        "(isandbox (assign 0 (min (var 0) (lit 0))))",
        "(instr (br (not (lt (var 0) (lit 2))) 3) (assign 1 (add (var 1) (lit 1))) (br (lit 1) -2))",
        "(sseq (instr (stop)) (loop (var 0) (instr (nop))))",
        "(seq frame return)",
        "(instr (nop) (loop (var 0) (instr (stop))))",
        "(instr (nop) ?x)",
    ]
    for text in examples:
        term = parse_term(text)
        assert print_term(term) == text
        assert parse_term(print_term(term)) == term


def test_benchmark_tracer_binds_existing_callables():
    # every name the traced benchmark run wraps must exist, so that a
    # refactor cannot silently break `perfbench/run.py --trace 1`
    tracer = _load_perfbench("tracer")
    for mod, fn, _, _ in tracer.SPANS:
        assert callable(getattr(importlib.import_module("gsoscheck." + mod), fn)), (mod, fn)
    gen = importlib.import_module("gsoscheck.gen")
    for fn in tracer.GEN_FUNCTIONS:
        assert callable(getattr(gen, fn)), fn
    assert tracer.COUNTERS
    for key in tracer.COUNTERS:
        mod, *path = key.split(".")
        owner = importlib.import_module("gsoscheck." + mod)
        if len(path) == 1:  # a module function
            assert callable(getattr(owner, path[0])), key
            continue
        cls, method = path
        # the tracer swaps a class's own attribute, "hash" being __hash__
        method = "__hash__" if method == "hash" else method
        assert callable(vars(getattr(owner, cls)).get(method)), key


def test_benchmark_tracer_traces_a_pass():
    # `perfbench/run.py --trace 1` wraps the names above and unpacks their
    # arguments: a signature the tracer no longer fits fails here, in the
    # suite itself.  No command steps through `step`, so it is called alone
    from gsoscheck import languages, semantics
    from gsoscheck.terms import seq, skip

    tracer = _load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        for argv in (["run", "--lang", "while", "--term", "(seq skip skip)", "--input", "{}"],
                     ["coherence", "--compiler", "sandbox", "--samples", "200"],
                     ["coherence", "--compiler", "flatten-low", "--mode", "closed"],
                     ["ctx-closure", "--lang", "while", *WHILE_PAIR, "--samples", "5"]):
            execute(argv)
        semantics.step(languages.language_registry()["while"], seq(skip(), skip()),
                       Store.of({}))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["languages.rule.calls"] > 0
    assert metrics["semantics.step.calls"] == 1
    # one count per use: the program `run` reads and runs, the pair
    # `ctx-closure` reads, and the step; none per subterm walked
    assert metrics["terms.is_closed.calls"] == 5
