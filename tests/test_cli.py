"""Command-line contract: exit codes, output shapes, JSON round trips."""
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from gsoscheck import gen
from gsoscheck.checker import CampaignConfig
from gsoscheck.cli import build_parser, execute, main
from gsoscheck.states import Store, parse_state


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
    for data in ([{"left": "skip"}], [["skip", "skip"]], [{"left": "skip", "right": 1}],
                 {"left": "skip", "right": "skip"}):
        pairs.write_text(json.dumps(data))
        assert main(["preserve", "--compiler", "embed-flag", "--pairs", str(pairs)]) == 2
    report = tmp_path / "report.json"
    for data in ({"command": ["laws", "--lang", "while"]},
                 {"command": "laws --lang while", "verdict": "pass"},
                 {"command": ["laws", 1], "verdict": "pass"}):
        report.write_text(json.dumps(data))
        assert main(["replay", "--report", str(report)]) == 2


@pytest.mark.parametrize("lang, term, state", [
    ("while-b", "(assign 1 (lit 5))", "[[1]]"),  # a frame shorter than L
    ("while-b", "skip", "[[1,2,3]]"),  # a frame longer than L
    ("stack", "skip", "({}, -1)"),  # a negative stack pointer
    ("while", "skip", "{0:-3}"),  # a negative value in a nat store
    ("while-b", "skip", "[[1,2] junk [3,4]]"),  # text beside the literal
    ("while", "skip", "{0:1} # junk"),  # a comment after the literal
])
def test_bad_input_state_exits_2(lang, term, state, capsys):
    assert main(["run", "--lang", lang, "--term", term, "--input", state]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_every_window_state_reads_back_from_its_show(langs, cfg):
    states = [(lang, s) for lang in langs.values() for s in gen.state_window(lang, cfg)]
    assert len(states) == 513
    for lang, s in states:
        assert parse_state(lang.state_kind, s.show(), lang.L) == s, (lang.name, s)


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    from gsoscheck import cli

    def broken(cp, cfg):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "check_coherence", broken)
    with pytest.raises(KeyError):
        main(["coherence", "--compiler", "embed-flag"])


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    from gsoscheck import cli

    def broken(cp, cfg):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "check_coherence", broken)
    with pytest.raises(ValueError):
        main(["coherence", "--compiler", "embed-flag"])


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
    assert report.config == asdict(CampaignConfig())


def test_preserve_cli(tmp_path, capsys):
    pairs = [{
        "left": "(while (var 0) (assign 0 (lit 0)))",
        "right": "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))",
    }]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    assert main(["preserve", "--compiler", "embed-flag", "--pairs", str(path)]) == 1
    out = capsys.readouterr().out
    assert "DISTINGUISHED" in out
    assert main(["preserve", "--compiler", "sandbox", "--pairs", str(path)]) == 0
    capsys.readouterr()


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
                  "--max-term-size", "2"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2, argv


WHILE_PAIR = ["--left", "(while (var 0) (assign 0 (lit 0)))",
              "--right", "(while (mul (var 0) (lit 2)) (assign 0 (lit 0)))"]


@pytest.mark.parametrize("argv", [
    ["coherence", "--compiler", "sandbox", "--samples", "-1"],
    ["coherence", "--compiler", "sandbox", "--max-term-size", "-1"],
    ["coherence", "--compiler", "sandbox", "--depth", "-1"],
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


def test_all_demos_under_a_minute(capsys):
    import time

    from gsoscheck.cli import DEMOS

    t0 = time.monotonic()
    for name in DEMOS:
        assert main(["demo", name]) == 0, name
    capsys.readouterr()
    assert time.monotonic() - t0 < 60


def test_seed_comes_only_from_the_command_line(tmp_path, capsys, monkeypatch):
    # a report echoes its command line, so a seed read from anywhere else
    # would make its replay differ
    monkeypatch.setenv("GSOSCHECK_SEED", "0x1234")
    assert main(["coherence", "--compiler", "embed-flag", "--json"]) == 1
    payload = capsys.readouterr().out
    assert json.loads(payload)["config"]["seed"] == CampaignConfig.seed
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
