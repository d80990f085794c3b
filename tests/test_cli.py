import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import entmix.cli as cli
from entmix import csvtext
from entmix.entanglement import (concurrence_raw, ef_from_concurrence, ef_max_asymptotic,
                                 max_concurrence)
from entmix.nonlocality import _classify, region_scan


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_state_derived_values(capsys):
    rc, out = run_cli(capsys, "state", "--a", "0.6", "--s", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["version"]
    assert doc["config"] == {"command": "state", "a": 0.6, "s": 0.5}
    assert abs(doc["concurrence"] - 0.2496) < 1e-9
    assert abs(doc["fidelity"] - 0.6544) < 1e-9
    assert abs(doc["xstate"]["t"] - 0.24) < 1e-9
    assert doc["matrix"]["real"][0][3] == doc["xstate"]["t"]


def test_state_perfect_bell(capsys):
    rc, out = run_cli(capsys, "state", "--a", "0.707107", "--s", "1")
    doc = json.loads(out)
    assert rc == 0
    assert abs(doc["concurrence"] - 1.0) < 1e-5
    assert doc["fidelity"] == 1.0


def test_state_separable_endpoint(capsys):
    rc, out = run_cli(capsys, "state", "--a", "0", "--s", "0.2")
    doc = json.loads(out)
    assert rc == 0
    assert doc["concurrence"] == 0.0
    assert doc["lhvt"]["feasible"] is False


def test_state_is_deterministic(capsys):
    _, out1 = run_cli(capsys, "state", "--a", "0.3", "--s", "0.7")
    _, out2 = run_cli(capsys, "state", "--a", "0.3", "--s", "0.7")
    assert out1 == out2


def test_state_rejects_bad_parameters(capsys):
    rc, _ = run_cli(capsys, "state", "--a", "1.5", "--s", "0.5")
    assert rc == 2


def test_bounds_values(capsys):
    rc, out = run_cli(capsys, "bounds", "--survival", "--chsh", "--a", "0.707106781186547")
    doc = json.loads(out)
    assert rc == 0
    assert abs(doc["survival"]["threshold"] - 1 / 3) < 1e-9
    assert abs(doc["chsh"]["threshold"] - 1 / np.sqrt(2)) < 1e-9
    assert doc["survival"]["bisection_delta"] < 1e-8
    assert doc["chsh"]["bisection_delta"] < 1e-8
    # numeric fields are serialized with 12 significant digits
    assert '"threshold": 0.333333333333,' in out


# bounds --survival --chsh --a A, byte for byte: A, then the document's a, and the threshold
# and bisection_delta of survival and of chsh, as it prints them
BOUNDS_DOCUMENTS = [
    ("1e-6", "1e-06", "9.99999000001e-07", "2.57067968868e-14",
     "0.732050807569", "1.35601529104e-05"),
    ("0.02", "0.02", "0.0196039980625", "1.11636394573e-13",
     "0.732017650804", "2.32147634449e-13"),
    ("0.4", "0.4", "0.268260230587", "2.13495887635e-13",
     "0.719825455043", "1.7763568394e-13"),
    ("0.707106781186547", "0.707106781187", "0.333333333333", "1.51600954013e-13",
     "0.707106781187", "3.35287353437e-13"),
    ("0.999999", "0.999999", "0.00141221462406", "3.95025808939e-13",
     "0.732050641762", "8.00548516366e-12"),
]


@pytest.mark.parametrize("flag, a, survival, survival_delta, chsh, chsh_delta", BOUNDS_DOCUMENTS)
def test_bounds_documents_are_byte_identical(capsys, flag, a, survival, survival_delta, chsh,
                                             chsh_delta):
    def block(name, threshold, delta):
        return (f'  "{name}": {{\n    "a": {a},\n    "threshold": {threshold},\n'
                f'    "method": "analytic",\n    "bisection_delta": {delta}\n  }}')

    want = (f'{{\n  "version": "{cli.__version__}",\n  "config": {{\n'
            f'    "command": "bounds",\n    "a": {a}\n  }},\n'
            + block("survival", survival, survival_delta) + ",\n"
            + block("chsh", chsh, chsh_delta) + "\n}\n")
    rc, out = run_cli(capsys, "bounds", "--survival", "--chsh", "--a", flag)
    assert rc == 0
    assert out == want


# whole state documents, as written at version 0.1.0; (0.3, 1.0) delivers a rank-one state
STATE_DOCUMENTS = [("0.6", "0.5"), ("0.707106781186547", "0.4166666666666667"), ("0", "0.2"),
                   ("0.3", "1.0"), ("1e-6", "0.5")]


@pytest.mark.parametrize("a, s", STATE_DOCUMENTS)
def test_state_documents_are_byte_identical(capsys, a, s):
    path = pathlib.Path(__file__).parent / "documents" / f"state_a{a}_s{s}.json"
    with open(path, encoding="utf-8", newline="") as fh:
        want = fh.read().replace('"version": "0.1.0"', f'"version": "{cli.__version__}"', 1)
    rc, out = run_cli(capsys, "state", "--a", a, "--s", s)
    assert rc == 0
    assert out == want


# bounds --eisert documents as written at version 0.1.0: n, s, ef_max, lower_bound
EISERT_DOCUMENTS = [
    ("2", "0.5", "0.117618873771", "0.235237747542"),
    ("3", "0.333333333333", "0.0184502360171", "0.0553507080512"),
    ("7", "0.142857142857", "0.00057496556812", "0.00402475897684"),
    ("1000", "0.001", "2.83710545792e-12", "2.83710545792e-09"),
    ("10000", "0.0001", "3.66281102593e-16", "3.66281102593e-12"),
]


@pytest.mark.parametrize("n, s, ef_max, lower_bound", EISERT_DOCUMENTS)
def test_eisert_documents_are_byte_identical(capsys, n, s, ef_max, lower_bound):
    want = (f'{{\n  "version": "{cli.__version__}",\n  "config": {{\n'
            f'    "command": "bounds",\n    "n": {n}\n  }},\n'
            f'  "eisert": {{\n    "n": {n},\n    "s": {s},\n    "ef_max": {ef_max},\n'
            f'    "lower_bound": {lower_bound}\n  }}\n}}\n')
    rc, out = run_cli(capsys, "bounds", "--eisert", "--n", n)
    assert rc == 0
    assert out == want


def test_bounds_eisert(capsys):
    rc, out = run_cli(capsys, "bounds", "--eisert", "--n", "2")
    doc = json.loads(out)
    assert rc == 0
    assert abs(doc["eisert"]["s"] - 0.5) < 1e-12
    assert abs(doc["eisert"]["lower_bound"] - 2 * doc["eisert"]["ef_max"]) < 1e-9


N_RANGE_TEXT = "n must be an integer in [2, 2**1024 - 2**970 - 1]"
PAST_THE_FLOATS = pytest.param(str(10**400), id="10**400")   # float(n) overflows


@pytest.mark.parametrize("n", ["0", "1", "-3", PAST_THE_FLOATS])
def test_bounds_eisert_rejects_small_n(n):
    proc = subprocess.run(
        [sys.executable, "-m", "entmix.cli", "bounds", "--eisert", "--n", n],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"{N_RANGE_TEXT}, got {n}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("n", ["1", PAST_THE_FLOATS])
def test_simulate_permutation_rejects_n_out_of_range(n):
    proc = subprocess.run(
        [sys.executable, "-m", "entmix.cli", "simulate", "--model", "permutation", "--n", n,
         "--a", "0.6", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {N_RANGE_TEXT}, got {n}\n"
    assert proc.stdout == ""


def test_bounds_requires_a_query(capsys):
    rc, _ = run_cli(capsys, "bounds", "--a", "0.5")
    assert rc == 2
    rc, _ = run_cli(capsys, "bounds", "--survival")
    assert rc == 2


def test_fig2_small_grid(capsys):
    rc, out = run_cli(capsys, "fig2", "--s-step", "0.25")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "S,EF_max_numeric,EF_asymptotic,EF_bell,EF_a0.1"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0.25", "0.5", "0.75", "1"]
    last = rows[-1]
    assert float(last[1]) == 1.0  # perfect delivery distributes a full Bell pair
    assert float(last[3]) == 1.0
    s_vals = [float(r[0]) for r in rows]
    bell_vals = [float(r[3]) for r in rows]
    assert all(v == 0.0 for s, v in zip(s_vals, bell_vals) if s <= 1 / 3)


def test_fig2_curve_subset(capsys):
    rc, out = run_cli(capsys, "fig2", "--s-step", "0.5", "--curves", "bell,max")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "S,EF_max_numeric,EF_bell"


def test_fig2_bell_column_is_exact(capsys):
    # reference digits: 50-digit E_F((3S - 1)/2) at the binary S of each row
    rc, out = run_cli(capsys, "fig2", "--s-step", "1e-4", "--curves", "max,bell")
    assert rc == 0
    rows = {r[0]: r[1:] for r in (line.split(",") for line in out.strip().split("\n")[1:])}
    assert rows["0.3334"][1] == "7.50452996741e-08"
    assert rows["0.3337"][1] == "1.89813140872e-06"
    assert rows["0.5609"][1] == "0.194551652946"
    # from S = 1/2 on the Bell pair is the optimal preparation
    assert [S for S, (ef_max, ef_bell) in rows.items()
            if float(S) >= 0.5 and ef_bell != ef_max] == []


def text12(x):
    # fig2's and fig3's text of each value, NULs dropped
    rows = csvtext.text12(np.asarray(x, dtype=float)).view(np.uint8).reshape(-1, 24)
    return [row.tobytes().replace(b"\0", b"").decode() for row in rows]


TEXT12_EDGES = (
    [0.0, 1.0] + [10.0**j for j in range(-5, 12)]
    # where %g turns from exponent to fixed form, and rounds up across it
    + [9.99999999999949e-05, 9.9999999999995e-05, 9.99999999999949, 9.9999999999995]
    # exact binary ties at the 12th digit, and values a hair from one
    + [100000000000.5, 100000000001.5, 1000000000005000.0, 1000000000015000.0,
       0.1234567890125, 0.5000000000005]
    # subnormals, the smallest normal, and the table's ends
    + [5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-33,
       9.99999999999e-34, 9.999999999994, 1.7976931348623157e308]
    + [-0.0, -0.25, float("inf"), float("-inf"), float("nan")]
)


def test_text12_is_format_12g():
    rng = np.random.default_rng(20261020)
    with np.errstate(under="ignore"):   # exp of the lowest draws is subnormal or 0
        seeded = np.exp(rng.uniform(np.log(5e-324), np.log(1e12), 200_000))
    x = np.concatenate([seeded, rng.uniform(0.0, 1.0, 50_000), TEXT12_EDGES])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = text12(x)
    want = [format(v, ".12g") for v in x.tolist()]
    assert [(v, g) for v, g, w in zip(x.tolist(), got, want) if g != w] == []


def test_text12_leaves_doubtful_values_to_format(monkeypatch):
    # format is called for exactly the values numpy could print otherwise: not positive
    # and finite, outside 1e-33 <= x < 10, or with a mantissa within 1e-3 of a rounding tie
    # or rounding up to 13 digits
    calls = []

    def counted(x, spec):
        calls.append(x)
        return format(x, spec)

    monkeypatch.setattr(csvtext, "format", counted, raising=False)
    doubtful = [0.0, -0.0, -0.25, float("inf"), float("nan"), 10.0, 123.5, 100000000000.5,
                9.99999999999e-34, 5e-324, 0.1234567890125, 9.99999999999949e-05]
    plain = [1e-33, 0.25, 1 / 3, 9.5, 1e-5, 0.000123, 9.99999999999e-05]
    got = text12(plain + doubtful)
    assert [repr(v) for v in calls] == [repr(v) for v in doubtful]
    assert got == [format(v, ".12g") for v in plain + doubtful]


def fig2_reference(s_step):
    # the document row by row, every curve: one format call per number
    n = int(round(1.0 / s_step))
    s = np.linspace(s_step, 1.0, n)
    c_max = max_concurrence(s)
    c_bell = np.where(s < 0.5, np.clip((s - 0.5) + s / 2.0, 0.0, None), c_max)
    columns = [s, ef_from_concurrence(c_max), ef_max_asymptotic(s), ef_from_concurrence(c_bell),
               ef_from_concurrence(np.clip(concurrence_raw(0.1, s), 0.0, None))]
    lines = ["S,EF_max_numeric,EF_asymptotic,EF_bell,EF_a0.1"]
    lines += [",".join(format(float(x), ".12g") for x in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_fig2_bytes_match_per_row_reference(capsys, tmp_path):
    want = fig2_reference(1e-4).encode()
    rc, out = run_cli(capsys, "fig2", "--s-step", "1e-4")
    assert rc == 0
    assert out.encode() == want
    out_file = tmp_path / "fig2.csv"
    rc, _ = run_cli(capsys, "fig2", "--s-step", "1e-4", "--out", str(out_file))
    assert rc == 0
    assert out_file.read_bytes() == want


def test_fig2_rejects_bad_step(capsys):
    rc, _ = run_cli(capsys, "fig2", "--s-step", "0.3")
    assert rc == 2
    rc, _ = run_cli(capsys, "fig2", "--s-step", "0")
    assert rc == 2


@pytest.mark.parametrize("block_cells", [7, 1000, 4093, 9999])
def test_fig2_blocks_are_bit_identical_to_one_block(capsys, monkeypatch, block_cells):
    # every curve is elementwise in S, so a block of rows computes as the same rows of
    # the whole grid; 9999 leaves a last block of one row
    argv = ["fig2", "--s-step", "1e-4"]
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 10**4)
    _, want = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", block_cells)
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert out == want


def test_fig3_small_grid(capsys, tmp_path):
    out_file = tmp_path / "fig3.csv"
    rc, _ = run_cli(capsys, "fig3", "--a-points", "12", "--s-points", "12",
                    "--out", str(out_file))
    assert rc == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "a,S,EF,entangled,chsh,lhvt"
    assert len(lines) == 1 + 12 * 12
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        ef, ent, chsh, lhvt = float(row[2]), int(row[3]), int(row[4]), int(row[5])
        assert (ef > 0) == bool(ent)
        if chsh:
            assert ent
        assert not (chsh and lhvt)


def test_fig3_stdout_matches_file(capsys, tmp_path):
    rc, out = run_cli(capsys, "fig3", "--a-points", "5", "--s-points", "5")
    out_file = tmp_path / "f.csv"
    rc2, _ = run_cli(capsys, "fig3", "--a-points", "5", "--s-points", "5",
                     "--out", str(out_file))
    assert rc == rc2 == 0
    assert out == out_file.read_text()


@pytest.mark.parametrize("argv", [["fig2", "--s-step", "0.01"],
                                  ["fig3", "--a-points", "6", "--s-points", "7"]],
                         ids=["fig2", "fig3"])
def test_stream_without_buffer_gets_the_same_text(capsys, tmp_path, argv):
    # a text stream with no binary buffer behind it gets the text of the --out file
    out_file = tmp_path / "doc.csv"
    assert cli.main(argv + ["--out", str(out_file)]) == 0
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        rc = cli.main(argv)
    assert rc == 0
    assert stream.getvalue() == out_file.read_text()
    assert capsys.readouterr().out == ""


def fig3_reference(a_points, s_points):
    # the document cell by cell: one format call per number, str(int(flag)) per flag
    grid = region_scan(a_points, s_points)
    lines = ["a,S,EF,entangled,chsh,lhvt"]
    for i, a in enumerate(grid.a):
        for j, s in enumerate(grid.s):
            cells = [format(float(x), ".12g") for x in (a, s, grid.ef[i, j])]
            cells += [str(int(flag[i, j])) for flag in (grid.entangled, grid.chsh, grid.lhvt)]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("a_points, s_points, block_cells", [
    pytest.param(37, 23, None, id="37-23"),
    pytest.param(2, 2, None, id="2-2"),
    # 50-cell blocks: 5 rows each, filling 2 blocks exactly, then one row over; one row
    # each, as the row fills a block or is longer than one
    pytest.param(10, 10, 50, id="10-10-block50"),
    pytest.param(11, 10, 50, id="11-10-block50"),
    pytest.param(7, 50, 50, id="7-50-block50"),
    pytest.param(4, 61, 50, id="4-61-block50"),
    # rows longer than a block are split into blocks of columns: 50, 50 and 20
    pytest.param(3, 120, 50, id="3-120-block50"),
])
def test_fig3_bytes_match_per_cell_reference(capsys, tmp_path, monkeypatch,
                                             a_points, s_points, block_cells):
    # a non-square grid catches swapped a and S axes
    if block_cells is not None:
        monkeypatch.setattr(cli, "_BLOCK_CELLS", block_cells)
    want = fig3_reference(a_points, s_points).encode()
    argv = ["fig3", "--a-points", str(a_points), "--s-points", str(s_points)]
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    assert out.encode() == want
    out_file = tmp_path / "fig3.csv"
    rc, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert rc == 0
    assert out_file.read_bytes() == want


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fig3_memory_beyond_the_scan_is_one_row(tmp_path):
    # the document (about 7 MB here) is written a block of cells at a time, never held whole
    out_file = str(tmp_path / "fig3.csv")
    scan_peak = traced_peak(lambda: region_scan(400, 400))
    fig3_peak = traced_peak(
        lambda: cli.main(["fig3", "--a-points", "400", "--s-points", "400", "--out", out_file]))
    assert fig3_peak <= 1.5 * scan_peak, (fig3_peak, scan_peak)


def test_fig3_memory_does_not_grow_with_rows(monkeypatch, tmp_path):
    # fig3 classifies and writes one block of rows at a time; 20 blocks of 200-cell
    # rows peak no higher than 2 of them
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 2000)
    out_file = str(tmp_path / "fig3.csv")

    def fig3(rows):
        return cli.main(["fig3", "--a-points", str(rows), "--s-points", "200", "--out", out_file])

    fig3(20)   # first-call allocations (lazy imports, caches) would inflate the first peak
    peaks = [traced_peak(lambda: fig3(rows)) for rows in (20, 200)]
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_fig2_memory_does_not_grow_with_rows(monkeypatch, tmp_path):
    # fig2 computes and writes one block of rows at a time; 20 blocks of rows peak no
    # higher than 2 of them, plus the S grid itself (8 bytes a row)
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 1000)
    out_file = str(tmp_path / "fig2.csv")

    def fig2(rows):
        return cli.main(["fig2", "--s-step", repr(1.0 / rows), "--out", out_file])

    fig2(2000)   # first-call allocations (lazy imports, caches) would inflate the first peak
    peaks = [traced_peak(lambda: fig2(rows)) for rows in (2000, 20000)]
    assert peaks[1] <= 1.5 * peaks[0] + 8 * 20000, peaks


def peak_rss_mb(argv):
    # the child's own peak resident set, from os.wait4 (ru_maxrss is in KB on Linux)
    child = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0
    return usage.ru_maxrss / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_fig3_peak_rss_is_bounded_along_s(tmp_path):
    # a row of 100000 cells is written in blocks of columns: the peak is the interpreter's
    # own plus the S axis and its column text, 26 B a column (about 35 MB against 29 MB for
    # the import alone, on Python 3.11 and numpy 2.4); every cell's text held as one row's
    # strings took it to 128 MB
    baseline = peak_rss_mb(["-c", "import entmix.cli"])
    peak = peak_rss_mb(["-m", "entmix.cli", "fig3", "--a-points", "2", "--s-points", "100000",
                        "--out", str(tmp_path / "fig3.csv")])
    assert peak <= baseline + 10, (peak, baseline)


def test_only_fig2_and_fig3_load_csvtext():
    # the other commands never load the block text code or build its tables
    code = ("import sys, entmix.cli as cli; cli.main(%r); print('entmix.csvtext' in sys.modules)")
    for argv, loaded in ((["bounds", "--eisert", "--n", "4"], "False"),
                         (["fig3", "--a-points", "2", "--s-points", "2"], "True")):
        out = subprocess.run([sys.executable, "-c", code % argv], capture_output=True, text=True,
                             check=True).stdout
        assert out.split()[-1] == loaded, (argv, out)


def test_fig3_column_text_out_of_memory_exits_2(capsys, monkeypatch, tmp_path):
    # an allocator that fails for the S column text, as a huge --s-points would
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if shape == 4099:
            raise MemoryError
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    out_file = tmp_path / "fig3.csv"
    rc = cli.main(["fig3", "--a-points", "2", "--s-points", "4099", "--out", str(out_file)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ("error: --s-points must be small enough that its column text fits in "
                   "memory, got 4099\n")
    assert out == ""
    assert not out_file.exists()


def test_region_scan_is_its_row_blocks_stacked():
    # the kernel classifies a block of rows bit for bit as region_scan does the whole grid
    grid = region_scan(23, 37)
    blocks = [_classify(grid.a[i:i + 5, None], grid.s[None, :]) for i in range(0, 23, 5)]
    ef, entangled, chsh, lhvt = (np.concatenate(parts) for parts in zip(*blocks))
    np.testing.assert_array_equal(ef.view(np.int64), grid.ef.view(np.int64))
    for got, want in ((entangled, grid.entangled), (chsh, grid.chsh), (lhvt, grid.lhvt)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype == np.bool_


def test_fig3_validates_grid_before_opening_out(capsys, tmp_path):
    out_file = tmp_path / "kept.csv"
    out_file.write_bytes(b"a,S\n0.5,0.5\n")
    rc = cli.main(["fig3", "--a-points", "1", "--out", str(out_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"a_points must be an integer in [2, {np.iinfo(np.intp).max // 8 - 2}], got 1" in err
    assert out_file.read_bytes() == b"a,S\n0.5,0.5\n"


def test_simulate_json_report(capsys):
    rc, out = run_cli(
        capsys, "simulate", "--model", "bernoulli", "--s", "1", "--a", "0.707107",
        "--trials", "20000", "--seed", "7", "--self-test",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["max_sigma"] <= 4.0
    assert doc["report"]["trials"] == 20000
    assert doc["config"]["seed"] == 7


def test_simulate_permutation_uses_fixed_point_probability(capsys):
    rc, out = run_cli(
        capsys, "simulate", "--model", "permutation", "--n", "4", "--a", "0.6",
        "--trials", "10000", "--seed", "7",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["effective_s"] == 0.25


def test_simulate_is_deterministic(capsys):
    args = ("simulate", "--model", "permutation", "--n", "3", "--a", "0.4",
            "--trials", "5000", "--seed", "42")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", "bernoulli", "--s", "0.5", "--a", "0.5",
                  "--trials", "100"])
    assert exc.value.code == 2


def test_simulate_requires_model_parameter(capsys):
    for model, message in (("bernoulli", "s must be in [0, 1], got None"),
                           ("permutation", f"{N_RANGE_TEXT}, got None")):
        rc = cli.main(["simulate", "--model", model, "--a", "0.5", "--trials", "100",
                       "--seed", "1"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert f"error: {message}" in err
        assert out == ""


@pytest.mark.parametrize("argv, message", [
    (["fig2", "--curves", "bogus"], "--curves must be a subset of"),
    (["bounds", "--eisert"], "--eisert requires --n"),
], ids=["fig2-curves", "bounds-eisert-no-n"])
def test_parameter_errors_exit_2_naming_the_parameter(capsys, argv, message):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert f"error: {message}" in err
    assert out == ""


def test_numeric_failure_exits_3(capsys, monkeypatch):
    def failing(args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli, "_cmd_state", failing)   # the parser binds the command at main
    rc = cli.main(["state", "--a", "0.5", "--s", "0.5"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert "numeric failure: Eigenvalues did not converge" in err
    assert out == ""


def test_simulate_self_test_failure_exits_4(capsys, monkeypatch):
    real = cli.simulate_pair_state

    def rigged(model, a, trials, seed):
        report = real(model, a=a, trials=trials, seed=seed)
        sigma = np.zeros_like(report.sigma)
        sigma[report.basis_settings.index("xz"), report.outcome_labels.index("+-")] = 9.9
        object.__setattr__(report, "sigma", sigma)
        object.__setattr__(report, "max_sigma", 9.9)
        return report

    monkeypatch.setattr(cli, "simulate_pair_state", rigged)
    rc = cli.main(["simulate", "--model", "bernoulli", "--s", "0.5", "--a", "0.5",
                   "--trials", "100", "--seed", "1", "--self-test"])
    assert rc == 4
    assert "max_sigma = 9.900 > 4.0 at setting xz, outcome +-" in capsys.readouterr().err


def test_simulate_rejects_unrepresentable_trials():
    proc = subprocess.run(
        [sys.executable, "-m", "entmix.cli", "simulate", "--model", "bernoulli", "--s", "0.5",
         "--a", "0.5", "--trials", "10000000000000000000", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "trials must be an integer in [1, 9223372036854775807]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_rejects_seed_out_of_range(seed):
    proc = subprocess.run(
        [sys.executable, "-m", "entmix.cli", "simulate", "--model", "bernoulli", "--s", "0.5",
         "--a", "0.5", "--trials", "100", "--seed", seed],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert "seed must be an integer in [0, 2**128 - 1]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "entmix.cli", "bounds", "--survival", "--a", "0.6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["survival"]["threshold"] - 0.48 / 1.48) < 1e-9
