"""Config validation, constrained generation, the run harness, and the CLI."""

import csv
import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from charsums import cli, make_field
from charsums.cli import (
    all_applicable_pass,
    check_identity,
    csv_without_timing,
    flags_from_values,
    gen_poly,
    main,
    parse_config,
    rows_to_csv,
    run,
)
from charsums.errors import CharsumsError, ConfigInvalid, Unsatisfiable
from charsums.polyring import is_squarefree, parity_check, Parity, root_structure

BASE_CFG = {
    "version": 1,
    "kind": "TransAdd",
    "p": 7,
    "s": 1,
    "r": [1, 2],
    "d": [3],
    "char": {"b": 1},
    "poly": {"source": "random", "constraints": {"a_dm1_zero": True}},
    "trials": 1,
    "seed": 42,
    "workers": 1,
    "cap": 1 << 22,
}


def cfg(**over):
    data = json.loads(json.dumps(BASE_CFG))
    data.update(over)
    return data


def test_parse_config_accepts_valid():
    config = parse_config(cfg())
    assert config.kind == "TransAdd" and config.r == [1, 2] and config.d == [3]


def test_parse_config_rejections():
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(version=2))
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(bogus=1))
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(cap=1 << 27))
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(kind="Nope"))
    bad = cfg()
    del bad["seed"]
    with pytest.raises(ConfigInvalid):
        parse_config(bad)  # seed mandatory for random sources
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(poly={"source": "random", "constraints": {"weird": True}}))
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(char={"b": 0}))
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(kind="TransMult", char={"b": 1, "m": 5}))  # 5 does not divide 6


def test_gen_poly_constraints():
    f7 = make_field(7, 1)
    rng = random.Random(1)
    g = gen_poly(f7, 3, {"a_dm1_zero": True, "odd": True}, rng)
    assert g.degree == 3 and g.coeff(2) == 0 and parity_check(g) == Parity.ODD

    f13 = make_field(13, 1)
    g2 = gen_poly(f13, 3, {"splits_in_k": True, "roots_sum_zero": True, "monic": True}, rng)
    rts = root_structure(g2, f13).roots
    assert sum(r.val for r in rts) % 13 == 0 or g2.coeff(2) == 0

    g3 = gen_poly(f13, 4, {"squarefree": True, "nonzero_constant": True}, rng)
    assert is_squarefree(g3) and g3.coeff(0) != 0

    # determinism
    a = gen_poly(f7, 2, {"squarefree": True}, random.Random(9))
    b = gen_poly(f7, 2, {"squarefree": True}, random.Random(9))
    assert a == b

    with pytest.raises(Unsatisfiable):
        gen_poly(make_field(2, 1), 1, {"odd": True, "nonzero_constant": True}, rng)


def test_gen_poly_split_draws_keep_coefficient_constraints():
    for p in (7, 11, 13):
        fld = make_field(p, 1)
        for seed in range(20):
            rng = random.Random(seed)
            g = gen_poly(fld, 3, {"splits_in_k": True, "a_dm1_zero": True}, rng)
            assert g.coeff(2) == 0 and root_structure(g, fld).splits_completely
            g = gen_poly(fld, 3, {"splits_in_k": True, "odd": True}, rng)
            assert parity_check(g) == Parity.ODD
            assert root_structure(g, fld).splits_completely


def test_run_small_grid_and_replay():
    config = parse_config(cfg())
    rows = run(config)
    assert len(rows) == 2
    assert all_applicable_pass(rows)
    csv1 = csv_without_timing(rows_to_csv(rows))
    csv2 = csv_without_timing(rows_to_csv(run(config)))
    assert csv1 == csv2


def test_run_worker_count_does_not_change_output():
    config1 = parse_config(cfg(r=[2], workers=1))
    config2 = parse_config(cfg(r=[2], workers=2))
    a = csv_without_timing(rows_to_csv(run(config1)))
    b = csv_without_timing(rows_to_csv(run(config2)))
    assert a == b


def test_run_explicit_poly_anchor():
    config = parse_config(
        cfg(poly={"source": "explicit", "coeffs": "0,1,0,1"}, r=[2], trials=1)
    )
    (row,) = run(config)
    assert row.kind == "TransAddSpExc"
    assert row.main_re == pytest.approx(49.0)
    assert row.residual < 2 * 7**1.5 + 1e-6
    assert row.applicable and row.pass_improved


def test_run_weil_kinds():
    config = parse_config(
        cfg(kind="WeilAdd", d=[4], r=[1, 2], trials=3, seed=5)
    )
    rows = run(config)
    assert len(rows) == 6 and all_applicable_pass(rows)
    config_m = parse_config(
        cfg(kind="WeilMult", d=[3], r=[1, 2], trials=3, seed=5,
            char={"b": 1, "m": 2},
            poly={"source": "random", "constraints": {"squarefree": True}})
    )
    rows_m = run(config_m)
    assert len(rows_m) == 6 and all_applicable_pass(rows_m)


def test_run_homothety_kinds():
    config = parse_config(
        cfg(kind="HomAdd", p=13, d=[2], r=[2], e=[2, 3], trials=1, seed=3)
    )
    rows = run(config)
    assert len(rows) == 2
    assert all_applicable_pass(rows)
    config_m = parse_config(
        cfg(kind="HomMult", p=13, d=[3], r=[2], e=[2], trials=1, seed=3,
            char={"b": 1, "m": 4},
            poly={"source": "random",
                  "constraints": {"squarefree": True, "nonzero_constant": True}})
    )
    rows_m = run(config_m)
    assert len(rows_m) == 1 and all_applicable_pass(rows_m)


def test_run_rejects_cap_overflow():
    with pytest.raises(ConfigInvalid):
        parse_config(cfg(r=[8], cap=1 << 20))  # 7^8 exceeds the configured cap
    # library callers that skip parse_config still meet the check in run
    config = dataclasses.replace(parse_config(cfg()), r=[8], cap=1 << 20)
    with pytest.raises(ConfigInvalid):
        run(config)


@pytest.mark.parametrize(
    "over, field",
    [
        ({"kind": "HomAdd", "e": [4]}, "e"),  # 4 does not divide 7 - 1
        ({"kind": "HomMult", "e": [2, 4, 0]}, "e"),
        ({"r": [1, 8, 30], "cap": 1 << 20}, "r"),  # 7^8 and 7^30 exceed the cap
        ({"r": [0, 2]}, "r"),
        # odd zeroes a_4: each draw was a cubic reported as d = 4, which
        # failed the improved bound of a quartic (121 > 109.4)
        ({"p": 11, "r": [2], "d": [4], "seed": 0,
          "poly": {"source": "random", "constraints": {"odd": True}}}, "poly.constraints"),
        ({"d": [3, 2, 5, 6], "poly": {"source": "random", "constraints": {"odd": True}}},
         "poly.constraints"),
        ({"poly": {"source": "random", "constraints": {"odd": True, "nonzero_constant": True}}},
         "poly.constraints"),
        # bool is a subclass of int in Python, but a JSON true is not 1
        ({"version": True}, "version"),
        ({"s": True}, "s"),
        ({"r": [True]}, "r"),
        ({"d": [True]}, "d"),
        ({"kind": "HomAdd", "e": [True]}, "e"),
        ({"trials": True}, "trials"),
        ({"seed": True}, "seed"),
        ({"workers": True}, "workers"),
        ({"cap": True}, "cap"),
        ({"char": {"b": True}}, "char"),
        ({"char": {"m": True}}, "char"),
        # a constraint value is a JSON boolean, nothing else
        ({"poly": {"source": "random", "constraints": {"monic": "yes"}}}, "poly.constraints"),
        ({"poly": {"source": "random", "constraints": {"squarefree": 0}}}, "poly.constraints"),
    ],
)
def test_parse_config_rejects_bad_e_r_and_cap_overflow(tmp_path, capsys, monkeypatch, over, field):
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(cfg(**over))
    assert [msg.split(":")[0] for msg in exc.value.messages] == [field]
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("run was reached"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg(**over)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {field}: ")


@pytest.mark.parametrize("kind", ["WeilMult", "TransMult", "HomMult"])
def test_parse_config_rejects_multiplicative_kinds_above_the_log_cap(tmp_path, capsys, monkeypatch, kind):
    # a multiplicative character of k reads k's log table, which exists for
    # q <= ffield.DLOG_CAP = 2^22; 4194319 is the least prime above it
    over = {"kind": kind, "p": 4194319, "r": [1], "d": [3], "e": [2], "char": {"m": 2}, "cap": 1 << 23}
    if kind != "HomMult":
        del over["e"]
    with pytest.raises(ConfigInvalid) as exc:
        parse_config(cfg(**over))
    assert exc.value.messages == ["p: a multiplicative character of F_4194319 needs its log table, "
                                  "so q <= 2^22"]
    monkeypatch.setattr(cli, "make_field", lambda *args, **kwargs: pytest.fail("a field was built"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg(**over)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: p: ")
    # the additive kinds need no log table of k
    parse_config(cfg(**dict(over, kind=kind.replace("Mult", "Add"))))


def test_flags_recomputable_from_rows():
    config = parse_config(cfg())
    for row in run(config):
        pw, pi = flags_from_values(
            row.kind, row.S_abs, row.weil, row.improved, row.residual, row.q, row.r
        )
        assert (pw, pi) == (row.pass_weil, row.pass_improved)


def test_check_identity_kinds():
    for kind in ("gauss", "counting", "orthogonality", "double-sum"):
        lines = check_identity(kind, 5, 1, 2, seed=0, trials=3)
        assert lines and all(line.startswith("PASS") for line in lines)
    for kind in ("reassembly-add", "reassembly-mult"):
        lines = check_identity(kind, 13, 1, 2, seed=0, trials=2)
        assert lines and all(line.startswith("PASS") for line in lines)


def test_cli_main_run_and_gen(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg(r=[2])))
    out = tmp_path / "rows.csv"
    code = main(["run", str(path), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("kind,p,s,q,r,d,m,poly")
    assert "TransAddSpExc" in text
    capsys.readouterr()

    code = main(["gen", "--p", "7", "--d", "3", "--seed", "1", "--a-dm1-zero", "--odd"])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    parts = printed.split(",")
    assert len(parts) == 4 and parts[2] == "0" and parts[0] == "0"

    code = main(["check-identity", "gauss", "--p", "11"])
    assert code == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg(version=3)))
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "over",
    [
        {"p": 9},
        {"d": [1], "poly": {"source": "random",
                            "constraints": {"odd": True, "nonzero_constant": True}}},
        {"poly": {"source": "explicit", "coeffs": "1,2,x"}},
    ],
)
def test_run_bad_input_is_one_error_line(tmp_path, capsys, over):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg(**over)))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.out == ""


def test_json_output(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg(r=[1])))
    out = tmp_path / "rows.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert isinstance(rows, list) and rows[0]["kind"].startswith("TransAdd")
    assert "S_abs" in rows[0] and "seconds" in rows[0]


@pytest.mark.parametrize(
    "name, text",
    [
        ("missing.json", None),  # never written
        ("malformed.json", "{bad"),
        ("binary.json", b"\xff\xfe\x00"),
    ],
    ids=["missing", "malformed", "undecodable"],
)
def test_run_unreadable_config_is_one_error_line(tmp_path, capsys, name, text):
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main(["run", str(path), "--seed", "3"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""


def test_run_non_object_config_with_override_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["run", str(path), "--seed", "3"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["config error: config must be a JSON object"]


@pytest.mark.parametrize(
    "over, bad",
    [
        ({"kind": "TransMult", "p": 3, "s": 2, "char": {"m": 2}}, "a_0 = 100"),
        ({"p": 3, "s": 2, "poly": {"source": "explicit", "coeffs": "1,-1,0,1"}}, "a_1 = -1"),
        ({"p": 3, "s": 2, "poly": {"source": "explicit", "coeffs": "[1 0],[0 0 1],[1]"}},
         "a_1 = [0 0 1]"),
        ({"kind": "HomAdd", "p": 7, "r": [2, 3], "e": [3],
          "poly": {"source": "explicit", "coeffs": "1,49,1"}}, "a_1 = 49"),
        ({"kind": "HomAdd", "p": 7, "r": [2], "e": [3],
          "poly": {"source": "explicit", "coeffs": "[1 7],[1]"}}, "a_0 = [1 7]"),
    ],
    ids=["F9-int", "F9-negative", "F9-digits", "HomAdd-int", "HomAdd-digit"],
)
def test_parse_config_rejects_out_of_range_explicit_coefficients(tmp_path, capsys, over, bad):
    data = cfg(**{"poly": {"source": "explicit", "coeffs": "100,0,0,1"}, **over})
    with pytest.raises(ConfigInvalid) as info:
        parse_config(data)
    assert any(bad in msg for msg in info.value.messages)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: poly.coeffs: " + bad)


def test_parse_config_reduces_explicit_integers_over_prime_fields():
    config = parse_config(cfg(poly={"source": "explicit", "coeffs": "100,-1,0,1"}))
    rows = run(config)
    assert rows and all(row.poly == "2,6,0,1" for row in rows)


@pytest.mark.parametrize("d", [[0], [-2], [3, 0]], ids=["zero", "negative", "one-of-two"])
def test_parse_config_rejects_degrees_below_one(tmp_path, capsys, d):
    with pytest.raises(ConfigInvalid) as info:
        parse_config(cfg(d=d))
    assert info.value.messages == ["d: every degree must be >= 1"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg(d=d)))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error: d: every degree must be >= 1"]
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "over, message",
    [
        ({"kind": "WeilAdd", "p": 3, "s": 2, "coeffs": "[1 0],[0 1],5"}, "expected"),
        ({"coeffs": "1,[2]"}, "expected"),
        ({"coeffs": "[1 2"}, "expected"),
        ({"coeffs": "[],[]"}, "expected"),
        ({"kind": "WeilAdd", "coeffs": "[],[]"}, "expected"),
        ({"coeffs": "0,0,0"}, "every coefficient is zero"),
        ({"coeffs": "7,14,-21"}, "every coefficient is zero"),
        ({"p": 3, "s": 2, "coeffs": "[0],[0 0]"}, "every coefficient is zero"),
        ({"kind": "HomAdd", "e": [3], "coeffs": "0, 0"}, "every coefficient is zero"),
    ],
    ids=["F9-trailing-int", "int-then-group", "open-group", "empty-groups",
         "WeilAdd-empty-groups", "zeros", "zero-mod-p", "F9-zero-groups", "HomAdd-zeros"],
)
def test_parse_config_rejects_partial_or_zero_coefficient_text(tmp_path, capsys, over, message):
    data = cfg(**{k: v for k, v in over.items() if k != "coeffs"})
    data["poly"] = {"source": "explicit", "coeffs": over["coeffs"]}
    with pytest.raises(ConfigInvalid) as info:
        parse_config(data)
    assert len(info.value.messages) == 1 and message in info.value.messages[0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: poly.coeffs: ")
    assert "Traceback" not in captured.err and captured.out == ""


def test_parse_config_rejects_huge_field_and_level_without_computing_them():
    # p^s and q^r with exponents this large would not finish
    with pytest.raises(ConfigInvalid) as info:
        parse_config(cfg(s=2**40))
    assert info.value.messages == ["s: p^s must be below 2^63"]
    hom = cfg(kind="HomAdd", e=[3], r=[10**12], poly={"source": "explicit", "coeffs": "1,1"})
    with pytest.raises(ConfigInvalid) as info:
        parse_config(hom)
    assert [m.split(":")[0] for m in info.value.messages] == ["r"]


GOLDEN = sorted(path.stem for path in (Path(__file__).parent / "data").glob("golden_*.json"))


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_csv_bytes(name, workers=1):
    # every kind, a TransAddExc main term, empty main cells and a quoted
    # bracketed polynomial: recorded CSVs pin the row bytes across commits
    data = Path(__file__).parent / "data"
    config = parse_config({**json.loads((data / f"{name}.json").read_text()), "workers": workers})
    assert csv_without_timing(rows_to_csv(run(config))) == (data / f"{name}.csv").read_text()


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_csv_bytes_through_the_digit_walks(name, monkeypatch):
    # with the log-kernel cap below every golden field, each sum takes the
    # digit walks, the oracle of the log kernel, and gives the same bytes
    import charsums.charsum as cs

    monkeypatch.setattr(cs, "DLOG_CAP", 1)
    test_golden_csv_bytes(name)


MULTI_R = [
    name for name in GOLDEN
    if len(json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())["r"]) > 1
]


@pytest.mark.parametrize("name", MULTI_R)
def test_a_multi_r_config_split_by_r_gives_the_joint_bytes(name):
    # a g over k is drawn once for every level r of a run: the rows must be
    # those of one run per level, which draws it afresh each time
    data = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
    joint = csv_without_timing(rows_to_csv(run(parse_config(data))))
    parts = [csv_without_timing(rows_to_csv(run(parse_config({**data, "r": [r]})))) for r in data["r"]]
    assert parts[0] + "".join(part.split("\n", 1)[1] for part in parts[1:]) == joint


@pytest.mark.parametrize("kind", cli.KINDS)
def test_each_g_is_drawn_once_per_config(kind, monkeypatch):
    # a g over k serves every level r; a g over k_r (Hom) is drawn at each
    # r, and serves every e there, since the row seed does not involve e
    calls, open_cells = [], []
    run_cell = cli._run_cell

    def cell(*args):
        open_cells.append(args)
        try:
            return run_cell(*args)
        finally:
            open_cells.pop()

    def spy(ctx, d, constraints, rng):
        assert open_cells, "g drawn outside a row"  # its time is the row's
        calls.append((ctx, d))
        return gen_poly(ctx, d, constraints, rng)

    monkeypatch.setattr(cli, "_run_cell", cell)
    monkeypatch.setattr(cli, "gen_poly", spy)
    hom = kind.startswith("Hom")
    config = cfg(kind=kind, r=[1, 2, 3], d=[2, 3], trials=2, char={"b": 1, "m": 2},
                 poly={"source": "random", "constraints": {}}, **({"e": [2, 3]} if hom else {}))
    rows = run(parse_config(config))
    cells = [(r, d) for r in (1, 2, 3) for d in (2, 3)]
    assert len(rows) == len(cells) * 2 * (2 if hom else 1)
    if hom:
        # once per (r, d, trial)
        assert [(ctx.r, d) for ctx, d in calls] == [c for c in cells for _ in range(2)]
    else:
        # once per (d, trial), all over k
        assert calls == [(make_field(7, 1), d) for d in (2, 3) for _ in range(2)]


def test_a_run_below_the_log_table_cap_starts_no_pool():
    # with two workers, a config whose fields are all under DLOG_CAP never
    # splits a digit walk, so the process imports no process pool at all
    data = Path(__file__).parent / "data"
    code = (
        "import json, sys\n"
        "from charsums import cli\n"
        f"data = json.loads(open({str(data / 'golden_transadd.json')!r}).read())\n"
        "rows = cli.run(cli.parse_config({**data, 'workers': 2}))\n"
        "sys.stdout.write(cli.csv_without_timing(cli.rows_to_csv(rows)))\n"
        "print(*[m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules],\n"
        "      file=sys.stderr)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == (data / "golden_transadd.csv").read_text()
    assert out.stderr == "\n"


def test_a_digit_walk_above_the_cap_starts_the_pool_and_shuts_it_down(monkeypatch):
    # F_2053^2 lies above DLOG_CAP: its coset walks split on the pool, which
    # starts on the first split, and the CSV bytes are the 1-worker bytes
    pools = []

    class Pool(cli._LazyPool):
        def map(self, fn, iterable):
            pools.append(self)
            return super().map(fn, iterable)

    monkeypatch.setattr(cli, "_LazyPool", Pool)
    test_golden_csv_bytes("golden_homadd_above_cap", workers=2)
    assert pools and all(pool is pools[0] for pool in pools)
    with pytest.raises(RuntimeError):
        pools[0].executor.submit(int)  # shut down when run returned


def test_the_pool_asks_for_no_more_processes_than_a_walk_has_parts(monkeypatch):
    # an executor may start every process it may use on its first map, and
    # a digit walk splits into at most 16 tasks: 64 workers ask for 16, with
    # the 1-worker bytes; this executor runs each map in this process
    import concurrent.futures

    asked = []

    class Executor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, iterable):
            return map(fn, iterable)

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
    test_golden_csv_bytes("golden_homadd_above_cap", workers=64)
    assert asked == [16]


def test_exceptional_main_terms_run_no_laurent_series(monkeypatch):
    # b_0 comes from a residue formula: the series is the test oracle only
    from charsums import boundbook, localdata

    def series(*args, **kwargs):
        raise AssertionError("a row ran the Laurent series")

    monkeypatch.setattr(localdata, "compute_local_data", series)
    monkeypatch.setattr(boundbook, "compute_local_data", series)
    test_golden_csv_bytes("golden_transadd_exc")


@pytest.mark.parametrize(
    "config, kind",
    [
        ({"kind": "TransAdd", "p": 3, "r": [2], "d": [3]}, "TransAdd"),
        ({"kind": "TransMult", "p": 3, "r": [6], "d": [6], "char": {"m": 2},
          "poly": {"source": "random", "constraints": {"a_dm1_zero": True}}}, "TransMultExc"),
    ],
    ids=["TransAdd", "TransMultExc"],
)
def test_translation_rows_when_p_divides_d(tmp_path, capsys, config, kind):
    # no centring shift exists: the row reports its failed hypotheses
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": 1, "seed": 0, **config}))
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    header, line = captured.out.splitlines()
    row = dict(zip(header.split(","), next(csv.reader([line]))))
    assert row["kind"] == kind and row["applicable"] == "0"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["TransAdd", "TransMult"])
def test_translation_rows_of_a_constant_g(tmp_path, capsys, kind):
    # d = 0: no bound constant, no gate and no Weil bound apply
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": 1, "kind": kind, "p": 7, "r": [1, 2, 4], "seed": 0,
                                "char": {"m": 2}, "poly": {"source": "explicit", "coeffs": "3"}}))
    assert main(["run", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    header, *lines = captured.out.splitlines()
    rows = [dict(zip(header.split(","), fields)) for fields in csv.reader(lines)]
    assert [row["r"] for row in rows] == ["1", "2", "4"]
    for row in rows:
        assert row["kind"] == kind and row["d"] == "0" and row["applicable"] == "0"
        assert float(row["weil"]) >= 0

@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-identity", "double-sum", "--s", "0"], "--s must be >= 1"),
        (["check-identity", "double-sum", "--r", "0"], "--r must be >= 1"),
        (["check-identity", "counting", "--r", "0"], "--r must be >= 1"),
        (["check-identity", "reassembly-add", "--r", "-1"], "--r must be >= 1"),
        (["check-identity", "double-sum", "--trials", "0"], "--trials must be >= 1"),
        (["check-identity", "reassembly-mult", "--trials", "-2"], "--trials must be >= 1"),
        (["gen", "--p", "7", "--s", "0", "--d", "3", "--seed", "1"], "--s must be >= 1"),
        (["gen", "--p", "7", "--d", "0", "--seed", "1"], "--d must be >= 1"),
        (["gen", "--p", "7", "--d", "-3", "--seed", "1"], "--d must be >= 1"),
        (["gen", "--p", "7", "--d", "2", "--seed", "0", "--odd"], "odd needs an odd degree"),
        (["gen", "--p", "7", "--d", "3", "--seed", "0", "--odd", "--nonzero-constant"],
         "exclude each other"),
        (["check-identity", "gauss", "--p", "2"], "checks nothing on F_2"),
        (["check-identity", "reassembly-add", "--p", "2"], "checks nothing on F_2"),
        (["check-identity", "reassembly-mult", "--p", "2"], "checks nothing on F_2"),
        (["check-identity", "reassembly-mult", "--p", "2", "--s", "2"], "no quadratic character"),
        (["check-identity", "orthogonality", "--p", "2", "--s", "14"], "above the cap"),
        (["check-identity", "reassembly-add", "--p", "4194319", "--r", "1"], "needs q <= 2^22"),
        (["check-identity", "reassembly-mult", "--p", "4194319", "--r", "1"], "needs q <= 2^22"),
        # p^s and q^r beyond 63 bits, and caps above q^r, each refused before k_r is built
        (["gen", "--p", "3", "--s", "4000000", "--d", "2", "--seed", "0"],
         "p^s does not fit in 63 bits: p = 3, s = 4000000"),
        (["check-identity", "counting", "--p", "3", "--r", "4000000"],
         "q^r does not fit in 63 bits: q = 3, r = 4000000"),
        (["check-identity", "counting", "--p", "2", "--r", "62"],
         "exhaustive count capped at 10000, got 4611686018427387904"),
        (["check-identity", "double-sum", "--p", "2", "--r", "61"],
         "enumeration of 2305843009213693952 terms exceeds cap 16777216"),
        (["check-identity", "double-sum", "--p", "101", "--r", "3"],
         "enumeration of 104060401 terms exceeds cap 67108864"),
        # argparse's own errors
        (["gen", "--p", "7", "--d", "2"], "arguments are required: --seed"),
        (["check-identity", "nosuch"], "invalid choice: 'nosuch'"),
        (["check-identity", "gauss", "--p", "x"], "argument --p: invalid int value: 'x'"),
        (["run"], "arguments are required: config"),
        (["frob"], "invalid choice: 'frob'"),
    ],
    ids=["s-zero", "r-zero", "counting-r-zero", "r-negative", "trials-zero",
         "trials-negative", "gen-s-zero", "gen-d-zero", "gen-d-negative", "gen-odd-even-d",
         "gen-odd-nonzero-constant", "gauss-F2", "reassembly-add-F2", "reassembly-mult-F2",
         "reassembly-mult-F4", "orthogonality-q2-cap", "reassembly-add-log-cap",
         "reassembly-mult-log-cap", "gen-s-beyond-63-bits", "counting-r-beyond-63-bits",
         "counting-cap", "double-sum-cap", "double-sum-q-cap", "gen-no-seed", "unknown-identity",
         "p-not-int", "run-no-config", "unknown-command"],
)
def test_bad_identity_and_gen_arguments_are_one_error_line(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "make_ext", lambda *a, **k: pytest.fail("an extension was built"))
    monkeypatch.setattr(cli, "random_poly", lambda *a, **k: pytest.fail("a polynomial was drawn"))
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "kind, p, s", [("gauss", 2, 1), ("reassembly-mult", 2, 2), ("nosuch", 7, 1)],
    ids=["F2", "even-q", "unknown-kind"],
)
def test_check_identity_argument_errors_are_not_config_errors(kind, p, s):
    # a `config error:` line names a failed config, and no config is read here
    with pytest.raises(CharsumsError) as info:
        check_identity(kind, p, s, 2, seed=0, trials=1)
    assert not isinstance(info.value, ConfigInvalid)


@pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: charsums") and captured.err == ""


def test_run_unwritable_out_fails_before_enumerating(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg()))
    out = tmp_path / "missing" / "rows.csv"
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: pytest.fail("run was reached"))
    assert main(["run", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {out}: ")
    assert "Traceback" not in captured.err and captured.out == ""
