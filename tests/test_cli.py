import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

from cubicount.cli import CHECKS, main
from cubicount.forms import DEFAULT_MAX_DISC, disc_budget


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_table_bound_1():
    code, out, _ = run_cli(["table", "--max", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,h_num,h_den,hhat_num,hhat_den"
    assert lines[1] == "1,1,6,1,2"


def test_table_bound_0():
    code, out, _ = run_cli(["table", "--max", "0"])
    assert code == 0
    assert out.strip() == "delta,h_num,h_den,hhat_num,hhat_den"


_NEGATIVE_MAX_COMMANDS = (
    ["table"], ["zeta"], ["dump-pic"], ["verify", "on"], ["verify", "rhs"], ["verify", "scholz"], ["verify", "oracle"],
)


@pytest.mark.parametrize("command", _NEGATIVE_MAX_COMMANDS)
def test_negative_max_exits_2_before_any_work(command):
    # table and verify rhs/scholz used to exit 0 with an empty result, zeta
    # and verify on to exit 2 with an isqrt message
    code, out, err = run_cli(command + ["--max", "-3"])
    assert (code, out) == (2, "")
    assert "--max must be >= 0" in err


def test_negative_max_from_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max": -5}))
    for command in (["table"], ["verify", "rhs"]):
        code, out, err = run_cli(command + ["--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "--max must be >= 0" in err


@pytest.mark.parametrize("command", [["table", "--budget", "-5"], ["dump-pic", "--budget", "-1"]])
def test_negative_budget_exits_2_before_any_work(command):
    # table used to exit 2 with "budget exceeded ... over budget -5", and
    # dump-pic to exit 0
    code, out, err = run_cli(command + ["--max", "0"])
    assert (code, out) == (2, "")
    assert "--budget must be >= 0" in err


def test_negative_budget_from_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": -5}))
    for command in (["table"], ["dump-pic"]):
        code, out, err = run_cli(command + ["--max", "0", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "--budget must be >= 0" in err


@pytest.mark.parametrize("command", _NEGATIVE_MAX_COMMANDS[:4])
def test_zero_max_is_an_empty_run(command):
    code, out, err = run_cli(command + ["--max", "0"])
    assert code == 0
    assert out.strip() in ("[]", "delta,h_num,h_den,hhat_num,hhat_den", "n,zeta_plus,zeta_minus,zhat_plus,zhat_minus")


def test_table_json_format():
    code, out, _ = run_cli(["table", "--max", "1", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows == [
        {"delta": 1, "h_num": 1, "h_den": 6, "hhat_num": 1, "hhat_den": 2}
    ]


@pytest.mark.parametrize("argv, sha", [
    ("table --max 300 --format json", "c01736c920ff418129ff98fc2beca866bebf78ebedf06b65aea28842bc47826b"),
    ("zeta --max 200", "e567281bd818e3b64b817840010620796d2d553a4bfe3d86b4c4698d5cccafba"),
    ("zeta --max 200 --format json", "7546e1255a78b30f7c74a79810c6478cddd82c26210fe2296a8f8ce60faea483"),
    ("dump-pic --max 60", "e80c2136d2672c77414476b31c3040e4507b093b66cffda0f80690ee0b19cff5"),
    ("verify on recursion rhs lhs fields-pic prop6 scholz --max 60",
     "e0bbd239cab3cd80b4fc712cf2021840d836efbac352b125f6527cf1ca47915f"),
])
def test_command_output_digest(argv, sha):
    # sha256 of stdout, taken when each command had its own writer
    code, out, err = run_cli(argv.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == sha
    if argv.startswith("verify"):
        assert err.endswith("386 checks passed\n")


@pytest.mark.parametrize("argv", [
    "table --max 60", "table --max 60 --format json", "verify on --max 10", "dump-pic --delta -23",
    "verify on --max 200", "verify on --max 0", "zeta --max 0", "zeta --max 100 --format json",
])
def test_out_writes_the_stdout_bytes_to_the_file(argv, tmp_path):
    code, want, _ = run_cli(argv.split())
    assert code == 0 and want
    path = tmp_path / "out"
    code, out, _ = run_cli(argv.split() + ["--out", str(path)])
    assert (code, out) == (0, "")
    assert path.read_bytes() == want.encode()


def test_out_to_a_missing_directory_exits_2(tmp_path):
    code, out, err = run_cli(["table", "--max", "1", "--out", str(tmp_path / "missing" / "x")])
    assert (code, out) == (2, "")
    assert "io failure" in err


def test_verify_on_small():
    code, out, err = run_cli(["verify", "on", "--max", "25"])
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["pass"] for r in reports)


def test_verify_recursion_flags():
    code, out, _ = run_cli(["verify", "recursion", "--D", "1", "--p", "2"])
    assert code == 0
    reports = json.loads(out)
    assert {r["check"] for r in reports} == {"recursion-h", "recursion-hhat"}


def test_verify_recursion_rows_name_their_prime():
    # the extra keys of a report reach the JSON: without p the rows of two
    # primes differ only in position
    code, out, _ = run_cli(["verify", "recursion", "--D", "1", "--primes", "2", "3"])
    assert code == 0
    reports = json.loads(out)
    assert [r["p"] for r in reports] == [2, 2, 3, 3]
    assert list(reports[0]) == ["check", "delta", "p", "lhs", "rhs", "pass"]


@pytest.mark.parametrize("argv", [
    ["table", "--max", "1", "--shards", "2"],
    ["verify", "on", "--format", "json"],
    ["dump-pic", "--delta", "-23", "--format", "csv"],
])
def test_flags_no_command_reads_are_rejected(argv):
    # --shards changed nothing and --format was read by table and zeta only
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_verify_D_names_the_deltas_of_every_per_delta_check():
    # in the order given, and past prop6's cap of 40
    which = ["on", "rhs", "lhs", "fields-pic", "prop6", "scholz"]
    code, out, err = run_cli(["verify"] + which + ["--D", "5", "-23", "41", "-4", "--max", "0"])
    assert code == 0 and "only" not in err, err
    got = [(r["check"], r["delta"]) for r in json.loads(out)]
    assert got == [(name, D) for name in which for D in (5, -23, 41, -4)]


@pytest.mark.parametrize("check, delta", [
    ("lhs", "-256"), ("scholz", "-12"), ("scholz", "1"), ("rhs", "2"), ("fields-pic", "3"), ("prop6", "-3"),
    ("on", "2"), ("oracle", "-1"),
])
def test_verify_D_a_check_does_not_accept_exits_2(check, delta):
    code, out, err = run_cli(["verify", check, "--D", delta])
    assert (code, out) == (2, "")
    assert "invalid input" in err


def test_verify_exit_codes_on_fault(monkeypatch):
    # one sixth too many at disc 5 in the plain counts table must flip the
    # exit code to 1, and the FAIL line name on and that delta
    import cubicount.counting as counting

    real = counting._build_sixths_table

    def tampered(X, kind):
        table = real(X, kind)
        if kind == "plain":
            table[5] = table.get(5, 0) + 1
        return table

    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    monkeypatch.setattr(counting, "_build_sixths_table", tampered)
    code, out, err = run_cli(["verify", "on", "--max", "10"])
    assert code == 1
    assert "FAIL on at delta=5: " in err


def test_verify_budget_exit_2():
    code, _, err = run_cli(["verify", "on", "--max", str(10 ** 8)])
    assert code == 2
    assert "budget" in err


def test_zeta_csv():
    code, out, _ = run_cli(["zeta", "--max", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,zeta_plus,zeta_minus,zhat_plus,zhat_minus"
    assert lines[1] == "1,1/6,0/1,0/1,1/2"


def test_dump_pic():
    code, out, _ = run_cli(["dump-pic", "--delta", "-23"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["delta"] == -23
    assert payload[0]["order"] == 3
    assert payload[0]["three_torsion"] == 3


def test_dump_pic_non_discriminant_exits_2():
    for delta in ("2", "0"):
        code, out, err = run_cli(["dump-pic", "--delta", delta])
        assert code == 2, err
        assert out == "" and "invalid input" in err


def test_non_prime_is_rejected_before_any_check(monkeypatch):
    # --primes 2 4 used to run every p = 2 check before p = 4 was rejected
    import cubicount.counting as counting

    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    calls = []
    real = counting.h_value
    monkeypatch.setattr(counting, "h_value", lambda *a: calls.append(a) or real(*a))
    for which in ("recursion", "on"):
        code, out, err = run_cli(["verify", which, "--D", "5", "--primes", "2", "4"])
        assert code == 2, err
        assert out == "" and "invalid input" in err and "4 is not a prime" in err
    assert calls == [] and counting._SIXTHS_CACHE == {}


def test_prime_over_the_budget_exits_2_before_its_primality_test(monkeypatch):
    # trial division of --primes 2^61 - 1 ran before any check or budget
    # applied and had not finished after 10 s; a p over the budget is now
    # refused first, as h(p^6 D) is out of reach.  The default primes 2
    # and 3 need a budget >= 3.
    from cubicount import quad

    monkeypatch.delenv("CUBICOUNT_BUDGET", raising=False)
    tested = []
    monkeypatch.setattr(quad, "require_prime", tested.append)
    code, out, err = run_cli(["verify", "on", "--max", "1", "--primes", str(2 ** 61 - 1)])
    assert (code, out, tested) == (2, "", [])
    assert "budget exceeded: --primes %d over budget %d" % (2 ** 61 - 1, DEFAULT_MAX_DISC) in err
    code, out, err = run_cli(["verify", "on", "--max", "0", "--budget", "2"])
    assert (code, out, tested) == (2, "", [2])
    assert "budget exceeded: --primes 3 over budget 2" in err
    assert run_cli(["verify", "on", "--max", "0", "--budget", "3"])[0] == 0


def test_oracle_gates_the_counts_table(monkeypatch):
    # every other command reads h(D) off the plain counts table; one sixth
    # too many there at -23 is caught by the box oracle
    from cubicount import counting

    real = counting._build_sixths_table

    def tampered(X, kind):
        table = real(X, kind)
        if kind == "plain":
            table[-23] += 1
        return table

    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    monkeypatch.setattr(counting, "_build_sixths_table", tampered)
    code, out, err = run_cli(["verify", "oracle", "--max", "30"])
    assert code == 1
    assert "FAIL oracle at delta=-23: lhs=5/3 rhs=3/2" in err


def _count_builds(monkeypatch):
    from cubicount import counting

    real = counting._build_sixths_table
    calls = []
    monkeypatch.delenv("CUBICOUNT_BUDGET", raising=False)
    monkeypatch.setattr(counting, "_build_sixths_table", lambda *args: calls.append(args) or real(*args))
    return counting, calls


def test_D_list_in_any_order_builds_each_table_once(monkeypatch):
    # each table is built once, before any row, to the largest |delta| of
    # the list, so an ascending --D list no longer rebuilds both tables at
    # every delta (8 builds for these four); the rows keep the order given,
    # a repeated delta repeating its row
    counting, calls = _count_builds(monkeypatch)
    deltas = ["-19988", "-19992", "-19996", "-20000"]
    rows = {}
    for order in (deltas + deltas[:1], deltas[::-1]):
        monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
        del calls[:]
        code, out, err = run_cli(["verify", "on", "--D", *order])
        assert code == 0, err
        assert calls == [(540000, "zmat"), (20000, "plain")]
        got = json.loads(out)
        assert [str(r["delta"]) for r in got] == order
        rows[order[0]] = {r["delta"]: r for r in got}
    assert rows[deltas[0]] == rows[deltas[-1]]


def _bridge_sweep_bounds():
    # the --max of every bridge_sweep benchmark variant, read off perfbench
    # without importing it
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    (value,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and n.targets[0].id == "CLI_WORKLOADS"]
    argv, top, offsets, _ = ast.literal_eval(value)["bridge_sweep"]
    return argv, [top + k for k in offsets]


@pytest.mark.parametrize("top", _bridge_sweep_bounds()[1])
def test_bridge_sweep_builds_each_table_once(monkeypatch, top):
    # the plan of the bridge_sweep benchmark's run builds each table once,
    # to exactly the bound its checks read, also where -top is not a
    # discriminant and the sweep begins nearer 0
    from cubicount.quad import in_discs

    counting, calls = _count_builds(monkeypatch)
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    code, _, err = run_cli(_bridge_sweep_bounds()[0] + ["--max", str(top)])
    assert code == 0, err
    m = next(t for t in range(top, 0, -1) if in_discs(t) or in_discs(-t))
    assert calls == [(27 * m, "zmat"), (m, "plain"), (m, "fields")]


def test_verify_recursion_non_prime_exits_2():
    # p = 0 used to be dropped silently in favour of the default primes
    for flags in (["--p", "4"], ["--p", "0"], ["--p", "1"], ["--p", "-2"], ["--primes", "2", "4"]):
        code, out, err = run_cli(["verify", "recursion", "--D", "5"] + flags)
        assert code == 2, (flags, err)
        assert out == "" and "is not a prime" in err


def test_cli_entrypoint_subprocess():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "cubicount.cli", "table", "--max", "1"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1,1,6,1,2" in proc.stdout


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max": 1}))
    code, out, _ = run_cli(["table", "--config", str(cfg)])
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1,6,1,2"
    code, out, _ = run_cli(["table", "--config", str(cfg), "--max", "0"])
    assert code == 0
    assert out.strip() == "delta,h_num,h_den,hhat_num,hhat_den"
    code, _, err = run_cli(["table", "--config", str(tmp_path / "missing.json")])
    assert code == 2


def test_config_equals_spelling(tmp_path):
    # --config=PATH used to exit 2 with "unrecognized arguments"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max": 5}))
    code, out, err = run_cli(["table", "--config=%s" % cfg])
    assert code == 0, err
    assert (code, out, err) == run_cli(["table", "--config", str(cfg)])
    assert out.splitlines()[1:] == run_cli(["table", "--max", "5"])[1].splitlines()[1:]


def test_flag_beats_config_in_any_spelling(tmp_path):
    # the flag given as --max=1 or abbreviated used to lose to the config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max": 3}))
    for flag in (["--max=1"], ["--ma", "1"]):
        code, out, _ = run_cli(["table", "--config", str(cfg)] + flag)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1"], flag


def test_verify_without_a_check_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max", "5"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "rhs", "--D", "--max", "5"],
    ["dump-pic", "--delta", "--max", "5"],
    ["verify", "recursion", "--D", "5", "--primes"],
])
def test_empty_list_flag_exits_2(argv, capsys):
    # an empty --D, --delta or --primes used to be ignored (a sweep of
    # [-max, max]) or to run no check and pass
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_config_empty_primes_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"primes": []}))
    code, out, err = run_cli(["verify", "recursion", "--D", "5", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert "bad config" in err


def test_config_list_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(["table", "--config", str(cfg)])
    assert code == 2
    assert "JSON object" in err


def test_config_wrong_value_type_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    for bad in ({"max": "abc"}, {"budget": True}, {"primes": [2, "3"]}, {"format": "xml"}):
        cfg.write_text(json.dumps(bad))
        code, _, err = run_cli(["verify", "on", "--config", str(cfg)])
        assert code == 2, bad
        assert "bad config" in err


def test_invariant_error_exits_3(monkeypatch, tmp_path):
    # an uncached Picard build whose composition doubles every product form
    import cubicount.quad as quad

    compose = quad._compose
    monkeypatch.setattr(quad, "_picard_group", quad._picard_group.__wrapped__)
    monkeypatch.setattr(quad, "_compose", lambda D, f, g: tuple(2 * x for x in compose(D, f, g)))
    code, out, err = run_cli(["dump-pic", "--delta", "-23"])
    assert code == 3
    assert "internal invariant failed" in err and out == ""
    # --out is opened only once the first rows are ready
    path = tmp_path / "out"
    assert run_cli(["dump-pic", "--delta", "-23", "--out", str(path)])[0] == 3
    assert not path.exists()


def test_recursion_cap_is_stated_on_stderr():
    # without --D the recursion checks base |delta| <= 20 only; a larger
    # --max says so on stderr and leaves stdout and the exit code alone
    code, out, err = run_cli(["verify", "recursion", "--max", "21", "--p", "2", "--no-hhat"])
    assert code == 0
    assert "recursion: checked for |delta| <= 20 only" in err
    assert run_cli(["verify", "recursion", "--max", "20", "--p", "2", "--no-hhat"]) == (code, out, "20 checks passed\n")
    # explicit base discriminants have no cap
    assert "only" not in run_cli(["verify", "recursion", "--max", "21", "--D", "1", "--p", "2"])[2]


def test_prop6_cap_is_stated_on_stderr():
    code, out, err = run_cli(["verify", "prop6", "--max", "41"])
    assert code == 0
    assert "prop6: checked for |delta| <= 40 only" in err
    assert run_cli(["verify", "prop6", "--max", "40"]) == (code, out, "27 checks passed\n")


def test_oracle_cap_is_stated_on_stderr():
    code, out, err = run_cli(["verify", "oracle", "--max", "201"])
    assert code == 0
    assert "oracle: checked for |delta| <= 200 only" in err
    reports = json.loads(out)
    assert max(abs(r["delta"]) for r in reports) <= 200
    assert "%d checks passed" % len(reports) in err


def test_on_and_oracle_at_D_match_their_sweeps(monkeypatch):
    # on and oracle used to sweep --max and ignore --D; their rows at the
    # deltas --D names are now the sweep's rows there, in the order given.
    # 229 is over oracle's cap of 200, which binds --D too: -203 exits 2
    # before any box is built
    from cubicount import counting

    deltas = [-23, -4, 1, 9, 229]
    for which, cap in (("on", 229), ("oracle", 200)):
        given = [D for D in deltas if abs(D) <= cap]
        code, out, err = run_cli(["verify", which, "--D"] + [str(D) for D in given])
        assert code == 0, err
        top = max(abs(D) for D in given)
        sweep = {r["delta"]: r for r in json.loads(run_cli(["verify", which, "--max", str(top)])[1])}
        assert json.loads(out) == [sweep[D] for D in given]
    boxes = []
    monkeypatch.setattr(counting, "box_orbits", boxes.append)
    monkeypatch.setattr(counting, "box_reduced_forms", boxes.append)
    monkeypatch.setattr(counting, "_build_sixths_table", boxes.append)
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    for given in (["-23", "-203"], ["-23", "5000"]):
        code, out, err = run_cli(["verify", "oracle", "--D"] + given)
        assert (code, out, boxes) == (2, "", [])
        assert "budget exceeded: oracle checks |delta| <= 200 only, got %s" % given[1].lstrip("-") in err


@pytest.mark.parametrize("name", CHECKS)
def test_every_check_reads_D(name):
    # a check that swept --max whatever --D said would return rows away
    # from -23
    code, out, err = run_cli(["verify", name, "--D", "-23", "--primes", "2"])
    assert code == 0, err
    rows = json.loads(out)
    assert rows and {r["delta"] for r in rows} == {-23}


_BUDGET_RUNS = [["verify", name] for name in CHECKS] + [
    ["table"], ["zeta"], ["dump-pic", "--delta", "-23"]]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("cmd", _BUDGET_RUNS, ids=" ".join)
def test_budget_binds_every_path(cmd, how, tmp_path, monkeypatch):
    # rhs, lhs, prop6, scholz and dump-pic used to ignore --budget
    monkeypatch.delenv("CUBICOUNT_BUDGET", raising=False)
    if how == "flag":
        extra = ["--budget", "5"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": 5}))
        extra = ["--config", str(cfg)]
    code, out, err = run_cli(cmd + extra)
    assert code == 2, err
    assert out == "" and "budget" in err


@pytest.mark.parametrize("raw", ["abc", "1e6", "-5"])
def test_malformed_budget_variable_exits_2(raw, monkeypatch):
    # int() used to reject abc and 1e6 with its own message, and -5
    # passed as a budget that every size is over
    monkeypatch.setenv("CUBICOUNT_BUDGET", raw)
    code, out, err = run_cli(["table", "--max", "3"])
    assert code == 2, err
    assert out == "" and "invalid input: CUBICOUNT_BUDGET must be an integer >= 0, got %r" % raw in err


def test_empty_budget_variable_reads_as_unset(monkeypatch):
    # CUBICOUNT_BUDGET= (empty) is not refused like abc: it reads as unset,
    # so the default 10^6 binds
    monkeypatch.setenv("CUBICOUNT_BUDGET", "")
    assert disc_budget() == DEFAULT_MAX_DISC
    code, out, err = run_cli(["verify", "on", "--D", "5"])
    assert code == 0 and "1 checks passed" in err, err
    code, out, err = run_cli(["verify", "on", "--D", "40001"])
    assert (code, out) == (2, "") and "budget exceeded: requested |disc| <= 1080027 over budget 1000000" in err


def test_budget_flag_is_undone_after_the_call(monkeypatch):
    # flag > CUBICOUNT_BUDGET > default, and main leaves the variable as found
    monkeypatch.delenv("CUBICOUNT_BUDGET", raising=False)
    assert run_cli(["verify", "on", "--max", "10", "--budget", "5"])[0] == 2
    assert "CUBICOUNT_BUDGET" not in os.environ and disc_budget() == DEFAULT_MAX_DISC
    assert run_cli(["table", "--max", "1", "--budget", "27"])[0] == 0
    assert "CUBICOUNT_BUDGET" not in os.environ
    monkeypatch.setenv("CUBICOUNT_BUDGET", "5")
    assert run_cli(["table", "--max", "1"])[0] == 2
    assert run_cli(["table", "--max", "1", "--budget", "27"])[0] == 0
    assert run_cli(["table", "--max", "1", "--budget", "26"])[0] == 2
    assert os.environ["CUBICOUNT_BUDGET"] == "5" and disc_budget() == 5


def test_fail_line_shows_the_values_as_the_row_does(monkeypatch):
    # a failing scholz row used to print rhs=(Fraction(1, 1), Fraction(1, 3));
    # every row is written, then the FAIL line names the first failing one
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from cubicount import bridge

    real = bridge.check_scholz
    monkeypatch.setattr(bridge, "check_scholz", lambda D: dict(real(D), **{"pass": D not in (-23, 5)}))
    both = io.StringIO()
    with redirect_stdout(both), redirect_stderr(both):
        code = main(["verify", "scholz", "--D", "-4", "-23", "5"])
    assert code == 1
    text, fail = both.getvalue().split("]\n")
    assert [(r["delta"], r["pass"]) for r in json.loads(text + "]")] == [(-4, True), (-23, False), (5, False)]
    assert fail == "FAIL scholz at delta=-23: lhs=1/3 rhs=(1/1, 1/3)\n"


@pytest.mark.parametrize("given", [["2", "-23", "5"], ["-23", "2", "5"], ["-23", "5", "2"]])
def test_a_refused_delta_leaves_stdout_and_out_untouched(given, tmp_path, monkeypatch):
    # verify on rhs --D -23 2 used to make the -23 row before it refused 2;
    # every delta is now accepted before any row is made
    from cubicount import counting

    made = []
    real = counting.check_on
    monkeypatch.setattr(counting, "check_on", lambda D: made.append(D) or real(D))
    path = tmp_path / "out"
    path.write_text("kept")
    for out in ([], ["--out", str(path)]):
        code, stdout, err = run_cli(["verify", "on", "rhs", "--D"] + given + out)
        assert (code, stdout, made) == (2, "", [])
        assert err == "invalid input: on does not take delta 2\n"
    assert path.read_text() == "kept"


def test_the_plan_budget_leaves_stdout_and_out_untouched(tmp_path, monkeypatch):
    # hhat(-23) reads disc 621, so the plan refuses --budget 620 before it
    # builds any table
    counting, calls = _count_builds(monkeypatch)
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    path = tmp_path / "out"
    path.write_text("kept")
    for out in ([], ["--out", str(path)]):
        code, stdout, err = run_cli(["verify", "lhs", "on", "--D", "5", "-23", "--budget", "620"] + out)
        assert (code, stdout, calls) == (2, "", [])
        assert err == "budget exceeded: requested |disc| <= 621 over budget 620\n"
    assert path.read_text() == "kept"
    assert run_cli(["verify", "lhs", "on", "--D", "5", "-23", "--budget", "621"])[0] == 0


# the tables a verify run of each check builds: the plain and zmat tables
# for on and recursion, one table for rhs, lhs, fields-pic, prop6 and
# oracle, none for scholz; all of them together build the plain, zmat and
# fields-only tables
_BUILDS = {"on": 2, "recursion": 2, "rhs": 1, "lhs": 1, "fields-pic": 1, "prop6": 1, "scholz": 0, "oracle": 1}


@pytest.mark.parametrize("which", [[name] for name in CHECKS] + [list(CHECKS), ["on", "recursion"]], ids=" ".join)
def test_no_table_is_built_twice(which, monkeypatch):
    # verify recursion --max 20 built each table once per prime (4 builds),
    # verify on recursion --max 300 6 tables, and all eight checks 7
    counting, calls = _count_builds(monkeypatch)
    monkeypatch.setattr(counting, "_SIXTHS_CACHE", {})
    code, _, err = run_cli(["verify"] + which + ["--max", "300" if which == ["on", "recursion"] else "60"])
    assert code == 0, err
    builds = 3 if len(which) == len(CHECKS) else max(_BUILDS[name] for name in which)
    assert len(calls) == len({args[1:] for args in calls}) == builds, calls


def _largest_read(argv):
    # the largest |disc| the rows of a verify run read with no plan: each
    # read checks its own |disc| against the budget
    from cubicount import cli, counting, quad

    args = cli.build_parser().parse_args(argv)
    seen = [0]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(counting, "_SIXTHS_CACHE", {})
        for module in (counting, quad):
            m.setattr(module, "check_budget", lambda x, real=module.check_budget: seen.append(x) or real(x))
        for name in args.which:
            cap, wanted, reads, rows = CHECKS[name]
            deltas, X = cli._deltas(name, args, args.D, cap, wanted)
            for _ in rows(args, deltas, X):
                pass
    return max(seen)


@pytest.mark.parametrize("name", [name for name in CHECKS if name != "scholz"])
def test_the_plan_reaches_exactly_what_the_rows_read(name, monkeypatch):
    # with R the largest |disc| the rows read, --budget R runs, and R - 1 is
    # refused by the plan, before any writing starts.  scholz plans no read:
    # its Picard groups reach 3 |D| or |D| / 3
    from cubicount import cli

    wanted = CHECKS[name][1]
    given = [str(D) for D in (5, -4, -23, 41, -107) if wanted(D) and (name != "recursion" or abs(D) < 30)]
    argv = ["verify", name, "--primes", "3", "2", "--D"] + given
    R = _largest_read(argv)
    writes = []
    monkeypatch.setattr(cli, "_write", lambda *a: writes.append(a))
    monkeypatch.delenv("CUBICOUNT_BUDGET", raising=False)
    assert run_cli(argv + ["--budget", str(R)])[0] == 0 and len(writes) == 1
    code, out, err = run_cli(argv + ["--budget", str(R - 1)])
    assert (code, out, len(writes)) == (2, "", 1)
    assert "budget exceeded" in err


def test_scholz_plans_no_read(monkeypatch):
    # so the plan refuses no run that its rows' own budget checks accept
    monkeypatch.delenv("CUBICOUNT_BUDGET", raising=False)
    argv = ["verify", "scholz", "--D", "5", "-4", "-23"]
    assert run_cli(argv + ["--budget", str(_largest_read(argv))])[0] == 0


def test_rows_stream(monkeypatch):
    # the first rows are written before the check of the last delta runs,
    # and the texts written make the JSON of the whole run
    from cubicount import cli, counting

    made, written = [], []
    real = counting.check_on
    monkeypatch.setattr(counting, "check_on", lambda D: made.append(D) or real(D))
    monkeypatch.setattr(cli, "_emit", lambda path, texts: written.extend((t, len(made)) for t in texts))
    assert run_cli(["verify", "on", "--max", "300"])[0] == 0
    assert written[0][1] < len(made) == 300
    monkeypatch.undo()
    assert "".join(t for t, _ in written) == run_cli(["verify", "on", "--max", "300"])[1]


@pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 200])
def test_write_makes_the_bytes_of_one_dumps(n):
    # the rows go out a batch at a time; the bytes are those of one
    # json.dumps over the list, or of the CSV lines joined, and a newline
    import io
    from contextlib import redirect_stdout

    from cubicount.cli import _write

    rows = [{"delta": D, "lhs": "%d/3" % D, "rhs": ["1/1", "1/3"], "pass": D % 3 == 0} for D in range(n)]
    columns = ("delta", "lhs", "pass")
    csv = "\n".join([",".join(columns)] + [",".join(str(r[c]) for c in columns) for r in rows])
    for fmt, want in (("json", json.dumps(rows, indent=0)), ("csv", csv)):
        buf = io.StringIO()
        with redirect_stdout(buf):
            _write("-", iter(rows), fmt, columns)
        assert buf.getvalue() == want + "\n", fmt
