import csv
import io
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ppdecomp as ppd
from ppdecomp import InvalidInput, ParseError, read_matrix_csv, write_matrix_csv
from ppdecomp.cli import _load_result_json, _parse_simulation_config, main
from ppdecomp.matrixio import _loadtxt
from conftest import qr_basis


# ---------------------------------------------------------------------------
# CSV ingestion

def test_read_matrix_csv_basic(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_csv_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    assert np.array_equal(read_matrix_csv(path, has_header=True),
                          [[1.0, 2.0], [3.0, 4.0]])


def test_read_matrix_csv_ragged_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as err:
        read_matrix_csv(path)
    assert err.value.line == 2


def test_read_matrix_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(ParseError) as err:
        read_matrix_csv(path)
    assert err.value.line == 2 and err.value.col == 2


def test_read_matrix_csv_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(InvalidInput):
        read_matrix_csv(path)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 5)) * 1e3
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert np.array_equal(read_matrix_csv(path), m)


def _loop_read_matrix_csv(path, has_header=False):
    """Reference reader: the cell-by-cell loop that ``read_matrix_csv`` falls back on."""
    rows = []
    width = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, fields in enumerate(csv.reader(fh), start=1):
                if has_header and lineno == 1:
                    continue
                if width is None:
                    width = len(fields)
                if len(fields) != width:
                    raise ParseError(
                        f"{path}: line {lineno} has {len(fields)} fields, expected {width}",
                        line=lineno)
                parsed = []
                for col, cell in enumerate(fields, start=1):
                    if cell.startswith("\ufeff") and (lineno, col) == (1, 1):
                        raise ParseError(f"{path}: UTF-8 byte-order mark at line 1, column 1; "
                                         "save the file without it", line=1, col=1)
                    try:
                        if "_" in cell or not cell.isascii():   # outside the dialect
                            raise ValueError
                        parsed.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path}: non-numeric cell {cell!r} at line {lineno}, column {col}",
                            line=lineno, col=col) from None
                rows.append(parsed)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows or width == 0:
        raise InvalidInput(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _outcome(read, path, has_header):
    """The array's shape and bytes, or the error's type, text, line and column."""
    try:
        a = read(path, has_header)
    except (InvalidInput, ParseError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)
    return a.dtype.str, a.shape, a.tobytes()


CSV_CORPUS = {
    "plain": b"1,2\n3,4\n",
    "blank-line-middle": b"1,2\n\n3,4\n",
    "blank-line-end": b"1,2\n3,4\n\n",
    "blank-line-start": b"\n1,2\n3,4\n",
    "blank-line-one-column": b"1\n\n2\n",
    "blank-line-crlf": b"1,2\r\n\r\n3,4\r\n",
    "blank-line-cr": b"1,2\r\r3,4\r",
    "whitespace-line": b"1,2\n  \n3,4\n",
    "underscore": b"1_000,2\n3,4\n",
    "quoted": b'"1.5",2\n3,4\n',
    "quoted-comma": b'"1,5",2\n3,4\n',
    "hash-line": b"# note\n1,2\n",
    "hash-cell": b"1,2 # note\n3,4\n",
    "crlf": b"1,2\r\n3,4\r\n",
    "cr": b"1,2\r3,4\r",
    "no-final-newline": b"1,2\n3,4",
    "nan-inf": b"nan,inf\n-inf,NaN\n",
    "signed-nan-infinity": b"-nan,+Infinity\n-infinity,+nan\n",
    "nan-payload": b"nan(12),1\n",
    "overflow-underflow": b"1e500,-1e500\n1e-400,5e-324\n",
    "hex-float": b"0x1p3,1\n",
    "hex-int": b"0x10,1\n",
    "empty-cell": b"1,,2\n3,4,5\n",
    "trailing-comma": b"1,2,\n3,4,\n",
    "whitespace-cell": b"1, ,2\n",
    "padded-cells": b" 1 ,\t2 \n3,4\n",
    "bom": b"\xef\xbb\xbf1,2\n3,4\n",
    "non-utf8": b"1,2\n\xe9,3\n",
    "nul": b"1\x00,2\n",
    "form-feed-inside": b"1\x0c2,3\n",
    "non-ascii-digits": "\u0661,2\n\uff11,3\n".encode(),
    "non-ascii-space": "1\u00a0,2\n3,4\n".encode(),
    "ragged": b"1,2\n3\n",
    "single-cell": b"5\n",
    "empty": b"",
    "newline-only": b"\n",
    "multiline-quoted-header": b'"a\n1",b\n2,3\n',
    "header-only": b"a,b\n",
}


@pytest.mark.parametrize("has_header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("case", sorted(CSV_CORPUS))
def test_read_matrix_csv_agrees_with_the_loop(tmp_path, case, has_header):
    # np.loadtxt parses what it can; everything else, and any input with an
    # empty line (which loadtxt would skip), goes to the loop. Either way the
    # reader must accept and reject as the loop does, give the same array bit
    # for bit, and raise the same error text.
    path = tmp_path / "m.csv"
    path.write_bytes(CSV_CORPUS[case])
    assert _outcome(read_matrix_csv, path, has_header) == _outcome(
        _loop_read_matrix_csv, path, has_header)


def test_read_matrix_csv_names_the_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with EF BB BF; the error names it
    # instead of calling the first cell non-numeric.
    path = tmp_path / "m.csv"
    path.write_bytes(CSV_CORPUS["bom"])
    with pytest.raises(ParseError, match="UTF-8 byte-order mark at line 1, column 1") as exc:
        read_matrix_csv(path)
    assert (exc.value.line, exc.value.col) == (1, 1)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data(),
       fmt=st.sampled_from(["repr", "%.17g"]), has_header=st.booleans())
def test_read_matrix_csv_float_text_property(shape, data, fmt, has_header):
    # Any float64 written as repr or %.17g reads back bit for bit as the loop
    # reads it, and equal to the written value (NaN payloads aside).
    cells = data.draw(st.lists(st.floats(width=64), min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]), label="cells")
    m = np.array(cells, dtype=float).reshape(shape)
    text = (lambda v: repr(float(v))) if fmt == "repr" else (lambda v: "%.17g" % v)
    lines = ["a" + ",b" * (shape[1] - 1)] if has_header else []
    lines += [",".join(text(v) for v in row) for row in m]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        got = read_matrix_csv(path, has_header)
        assert got.tobytes() == _loop_read_matrix_csv(path, has_header).tobytes()
    assert np.array_equal(got, m, equal_nan=True)


# One row of ones whose line end starts at the last character of the first
# text buffer, so that line ends, empty lines and non-ASCII bytes can be put
# at and past the buffer's edge.
_ROW = b",".join([b"1"] * (io.DEFAULT_BUFFER_SIZE // 2))
STREAM_CASES = {
    "crlf-split-across-buffers": ((_ROW + b"\r\n") * 3, False),
    "cr-only-past-buffer": (b"1.5,2.5\r" * 2000, False),
    "blank-line-past-buffer": ((_ROW + b"\n") * 2 + b"\n" + _ROW + b"\n", False),
    "non-ascii-row-past-buffer": ((_ROW + b"\n") * 2 + _ROW + "\u00a0\n".encode(), False),
    "non-ascii-header-past-buffer": (_ROW + b",\xe9\n1,2\n3,4\n", True),   # not UTF-8
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_read_matrix_csv_streams_past_the_text_buffer(tmp_path, case):
    # The file reaches np.loadtxt through a text buffer of
    # io.DEFAULT_BUFFER_SIZE characters: a CR LF pair split across two
    # buffers is one line end, and what lies past the first buffer is
    # checked as what lies in it.
    data, has_header = STREAM_CASES[case]
    path = tmp_path / "m.csv"
    path.write_bytes(data)
    got = _outcome(read_matrix_csv, path, has_header)
    assert got == _outcome(_loop_read_matrix_csv, path, has_header)
    if case == "blank-line-past-buffer":
        assert got[:3] == ("ParseError", f"{path}: line 3 has 0 fields, expected 4096", 3)
    if case in ("crlf-split-across-buffers", "cr-only-past-buffer"):
        assert _loadtxt(path, has_header).tobytes() == got[2]   # no fallback to the loop


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(200, 2000), (50, 20000)])
def test_read_matrix_csv_peak_memory_is_about_the_array(tmp_path, shape):
    # The file is streamed into np.loadtxt, never held whole as bytes or lines.
    path = tmp_path / "m.csv"
    np.savetxt(path, np.random.default_rng(0).standard_normal(shape), fmt="%.17g",
               delimiter=",")
    m, peak = _traced_peak(read_matrix_csv, path)
    assert m.shape == shape and peak <= 2 * m.nbytes


def _joined_csv(matrix, header=None):
    """The CSV text as one string, rows formatted as ``write_matrix_csv`` does."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.asarray(matrix, dtype=float)]
    return "\n".join(lines) + "\n"


def test_write_matrix_csv_streams_rows(tmp_path):
    # Each row is written as soon as it is formatted, so the peak is about one
    # row of text, and the file is the one-string form byte for byte.
    m = np.random.default_rng(1).standard_normal((200, 2000))
    path = tmp_path / "m.csv"
    _, peak = _traced_peak(write_matrix_csv, path, m)
    assert peak < 1e6
    assert path.read_bytes() == _joined_csv(m).encode()
    for matrix, header in [(m[:2, :3], ["a", "b", "c"]), (np.empty((0, 3)), None),
                           (np.empty((0, 3)), ["a", "b", "c"]), (np.empty((2, 0)), None)]:
        write_matrix_csv(path, matrix, header)
        assert path.read_bytes() == _joined_csv(matrix, header).encode()


@pytest.mark.parametrize("failure", ["replace", "header"])
def test_write_matrix_csv_failure_keeps_the_target(tmp_path, monkeypatch, failure):
    # A write that fails, in the rename or while rows stream into the temp
    # file, leaves the previous file as it was and no temp file behind.
    path = tmp_path / "m.csv"
    path.write_bytes(b"1.0,2.0\n")
    header = None
    if failure == "replace":
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
    else:
        header = ["a", 2]   # not text: join raises once the temp file is open
    with pytest.raises((OSError, TypeError)):
        write_matrix_csv(path, np.ones((3, 2)), header)
    assert path.read_bytes() == b"1.0,2.0\n"
    assert list(tmp_path.glob(".tmp-*~")) == []


# ---------------------------------------------------------------------------
# subcommands

def write_noiseless_views(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    y = qr_basis(20, 3, rng) @ np.diag([3.0, 2.0, 1.5]) @ qr_basis(26, 3, rng).T
    p1 = tmp_path / "v1.csv"
    p2 = tmp_path / "v2.csv"
    write_matrix_csv(p1, y)
    write_matrix_csv(p2, y)
    return p1, p2


def test_decompose_cmd_identical_noiseless_views(tmp_path):
    p1, p2 = write_noiseless_views(tmp_path)
    out = tmp_path / "result.json"
    rc = main(["decompose", "--view", str(p1), "--view", str(p2),
               "--ranks", "3,3", "--bootstrap-reps", "6", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["joint_rank"] == 3
    assert payload["marginal_ranks"] == [3, 3]
    assert payload["joint"]["rank"] == 3
    assert payload["individuals"][0]["rank"] == 0


def test_decompose_cmd_dimension_mismatch(tmp_path, capsys):
    p1 = tmp_path / "v1.csv"
    p2 = tmp_path / "v2.csv"
    write_matrix_csv(p1, np.ones((5, 3)))
    write_matrix_csv(p2, np.ones((6, 3)))
    rc = main(["decompose", "--view", str(p1), "--view", str(p2),
               "--ranks", "1,1", "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "dimension mismatch" in err


def test_decompose_cmd_writes_diagnostics(tmp_path):
    p1, p2 = write_noiseless_views(tmp_path)
    svg = tmp_path / "d.svg"
    rep = tmp_path / "d.json"
    rc = main(["decompose", "--view", str(p1), "--view", str(p2),
               "--ranks", "3,3", "--bootstrap-reps", "6", "--seed", "1",
               "--out", str(tmp_path / "r.json"),
               "--diagnostic", str(svg), "--diagnostic-json", str(rep)])
    assert rc == 0
    assert svg.read_text().startswith("<svg")
    assert "spectrum" in json.loads(rep.read_text())


def test_decompose_cmd_three_views_multiview_path(tmp_path):
    cfg = ppd.SimConfig(n=35, dims=(40, 45, 50), joint_rank=3,
                        individual_ranks=(4, 3, 3), angle_deg=90.0, snr=2.0,
                        seed=0)
    views, _ = ppd.generate(cfg)
    args = ["decompose"]
    for k, v in enumerate(views):
        p = tmp_path / f"v{k}.csv"
        write_matrix_csv(p, v)
        args += ["--view", str(p)]
    out = tmp_path / "r.json"
    args += ["--ranks", "auto", "--bootstrap-reps", "30", "--seed", "5",
             "--out", str(out)]
    assert main(args) == 0
    payload = json.loads(out.read_text())
    assert payload["views"] == 3
    assert payload["joint_rank"] == 3
    assert len(payload["individuals"]) == 3


def test_decompose_cmd_requires_two_views(tmp_path, capsys):
    p1, _ = write_noiseless_views(tmp_path)
    rc = main(["decompose", "--view", str(p1), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_noise_spectrum_cmd_law_values(tmp_path):
    out = tmp_path / "law.json"
    rc = main(["noise-spectrum", "--q1", "0.5", "--q2", "0.5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["lambda_plus"] == pytest.approx(1.0)
    assert payload["sv_threshold"] == pytest.approx(1.0)


def test_noise_spectrum_cmd_degenerate_ratio(tmp_path):
    out = tmp_path / "law.json"
    assert main(["noise-spectrum", "--q1", "0", "--q2", "0.3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["mass_at_zero"] == 1.0
    assert payload["sv_threshold"] == 0.0


def test_noise_spectrum_cmd_empirical_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["noise-spectrum", "--n", "100", "--r1", "30", "--r2", "40", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert len(payload["empirical"]["squared_singular_values"]) == 30


def test_noise_spectrum_cmd_rejects_bad_ratio(tmp_path, capsys):
    rc = main(["noise-spectrum", "--q1", "1.4", "--q2", "0.2",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


SIM_CONFIG = """
n = 24
p = 30,34
joint_rank = 2
individual_ranks = 2,2
angles = 90
snrs = 8
rank_modes = true
reps = 2
seed = 3
bootstrap_reps = 8
"""


def test_simulate_cmd_runs_and_is_deterministic(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG)
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "angle,snr,rank_mode,mean_F_raw,mean_F_x10,stderr,reps,cell_seed"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[2] == "true"
    assert float(fields[4]) > 9.0  # near-noiseless grid recovers the structure


def test_simulate_cmd_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG + "bogus_key = 12\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "bogus_key" in capsys.readouterr().err


def test_simulate_cmd_rejects_bad_value(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(SIM_CONFIG.replace("reps = 2", "reps = two"))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "reps" in capsys.readouterr().err


def make_result_json(tmp_path):
    p1, p2 = write_noiseless_views(tmp_path, seed=4)
    out = tmp_path / "result.json"
    main(["decompose", "--view", str(p1), "--view", str(p2), "--ranks", "3,3",
          "--bootstrap-reps", "6", "--seed", "2", "--out", str(out)])
    return out


def test_diagnose_cmd_from_result(tmp_path):
    result = make_result_json(tmp_path)
    svg = tmp_path / "plot.svg"
    assert main(["diagnose", "--result", str(result), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_diagnose_cmd_with_truth_sidecar(tmp_path):
    result = make_result_json(tmp_path)
    sidecar = tmp_path / "truth.json"
    sidecar.write_text(json.dumps({"truth_lines": [1.0, 1.0, 1.0]}))
    svg = tmp_path / "plot.svg"
    assert main(["diagnose", "--result", str(result), "--truth", str(sidecar),
                 "--svg", str(svg)]) == 0
    assert 'class="truth-line"' in svg.read_text()


def test_diagnose_cmd_corrupted_result(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"joint_rank": 3,,}')
    rc = main(["diagnose", "--result", str(bad), "--svg", str(tmp_path / "p.svg")])
    assert rc == 2
    assert capsys.readouterr().err == ("error: parse: invalid JSON at line 1, column 18: "
                                       "Expecting property name enclosed in double quotes\n")


def test_diagnose_cmd_needs_an_output(tmp_path, capsys):
    result = make_result_json(tmp_path)
    rc = main(["diagnose", "--result", str(result)])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def _edited_result(tmp_path, edit):
    result = make_result_json(tmp_path)
    payload = json.loads(result.read_text())
    edit(payload)
    result.write_text(json.dumps(payload))
    return ["diagnose", "--result", str(result), "--svg", str(tmp_path / "p.svg")]


def _fractional_dims(payload):
    # Off the stored integers by fractions that int() would truncate alike.
    payload["n"] += 0.7
    payload["joint"]["ambient_dim"] += 0.2
    for basis in payload["individuals"]:
        basis["ambient_dim"] += 0.9


def _truth_sidecar(tmp_path, sidecar):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(sidecar))
    return ["diagnose", "--result", str(make_result_json(tmp_path)), "--truth", str(truth),
            "--svg", str(tmp_path / "p.svg")]


def _latin1_views(tmp_path):
    p1, p2 = write_noiseless_views(tmp_path)
    p2.write_bytes("\u00e9,1\n".encode("latin-1") + p2.read_bytes())
    return ["decompose", "--view", str(p1), "--view", str(p2), "--has-header",
            "--out", str(tmp_path / "r.json")]


def _edited_view(tmp_path, cell):
    """Views whose second file has ``cell`` as its first cell."""
    p1, p2 = write_noiseless_views(tmp_path)
    p2.write_bytes(cell + b"," + p2.read_bytes().split(b",", 1)[1])
    return ["decompose", "--view", str(p1), "--view", str(p2), "--out", str(tmp_path / "r.json")]


def _sim_config(tmp_path, text):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(text)
    return ["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]


def _ranked_views(tmp_path, ranks_flag):
    p1, p2 = write_noiseless_views(tmp_path)
    return ["decompose", "--view", str(p1), "--view", str(p2), *ranks_flag,
            "--out", str(tmp_path / "r.json")]


HOSTILE = {
    "decompose-rank-exceeds-view": lambda t: _ranked_views(t, ["--ranks", "99,2"]),
    "decompose-negative-rank": lambda t: _ranked_views(t, ["--ranks=-1,2"]),
    "decompose-negative-seed": lambda t: _ranked_views(t, ["--seed", "-1"]),
    "result-non-numeric-scalar": lambda t: _edited_result(
        t, lambda d: d.update(epsilon1_hat="abc")),
    "result-ragged-columns": lambda t: _edited_result(
        t, lambda d: d["joint"].update(columns=[[1.0, 0.0], [0.0]])),
    "result-scalar-spectrum": lambda t: _edited_result(
        t, lambda d: d["spectrum"].update(values=5)),
    "result-binding-pair-out-of-range": lambda t: _edited_result(
        t, lambda d: d.update(binding_pair=[0, 5])),
    "result-basis-length-mismatch": lambda t: _edited_result(
        t, lambda d: d["joint"].update(ambient_dim=7)),
    "result-basis-non-finite": lambda t: _edited_result(
        t, lambda d: d["joint"]["columns"].__setitem__(0, [float("nan")] * 20)),
    "result-basis-zero-ambient-dim": lambda t: _edited_result(
        t, lambda d: d["joint"].update(ambient_dim=0, rank=0, columns=[])),
    "result-spectrum-above-one": lambda t: _edited_result(
        t, lambda d: d["spectrum"]["values"].__setitem__(0, 1.5)),
    "result-threshold-nan": lambda t: _edited_result(
        t, lambda d: d["spectrum"].update(bootstrap_threshold=float("nan"))),
    "result-n-fractional": lambda t: _edited_result(t, _fractional_dims),
    "result-joint-rank-fractional": lambda t: _edited_result(
        t, lambda d: d.update(joint_rank=d["joint_rank"] + 0.5)),
    "result-marginal-rank-fractional": lambda t: _edited_result(
        t, lambda d: d.update(marginal_ranks=[3.5, 3])),
    "result-binding-pair-fractional": lambda t: _edited_result(
        t, lambda d: d.update(binding_pair=[0.5, 1])),
    "truth-non-numeric-lines": lambda t: _truth_sidecar(t, {"truth_lines": ["a", 1.0]}),
    "truth-scalar-lines": lambda t: _truth_sidecar(t, {"truth_lines": 5}),
    "truth-intervals-not-pairs": lambda t: _truth_sidecar(
        t, {"theorem1_intervals": [[0.1, 0.2, 0.3], 1]}),
    "truth-nan-line": lambda t: _truth_sidecar(t, {"truth_lines": [float("nan"), 0.5]}),
    "truth-infinite-interval": lambda t: _truth_sidecar(
        t, {"theorem1_intervals": [[float("inf"), 2.0], [0.0, 1.0]]}),
    "truth-reversed-interval": lambda t: _truth_sidecar(
        t, {"theorem1_intervals": [[0.9, 0.2]]}),
    "noise-spectrum-zero-n": lambda t: ["noise-spectrum", "--n", "0", "--r1", "0", "--r2", "0",
                                        "--out", str(t / "x.json")],
    "noise-spectrum-negative-rank": lambda t: ["noise-spectrum", "--n", "10", "--r1", "-1",
                                               "--r2", "2", "--out", str(t / "x.json")],
    "noise-spectrum-negative-seed": lambda t: ["noise-spectrum", "--n", "40", "--r1", "5",
                                               "--r2", "7", "--seed", "-5",
                                               "--out", str(t / "x.json")],
    "view-not-utf8": _latin1_views,
    "view-underscore-cell": lambda t: _edited_view(t, b"1_000"),
    "view-non-ascii-digit": lambda t: _edited_view(t, "\uff11".encode()),
    "view-byte-order-mark": lambda t: _edited_view(t, b"\xef\xbb\xbf1"),
    "simulate-zero-bootstrap-reps": lambda t: _sim_config(
        t, SIM_CONFIG.replace("bootstrap_reps = 8", "bootstrap_reps = 0")),
    "simulate-negative-seed": lambda t: _sim_config(t, SIM_CONFIG.replace("seed = 3",
                                                                          "seed = -3")),
    "simulate-sv-range-three-values": lambda t: _sim_config(t, SIM_CONFIG + "sv_range = 1,2,3\n"),
    "simulate-sv-range-one-value": lambda t: _sim_config(t, SIM_CONFIG + "sv_range = 1\n"),
    "simulate-sv-range-reversed": lambda t: _sim_config(t, SIM_CONFIG + "sv_range = 2,1\n"),
    "simulate-sv-range-nan": lambda t: _sim_config(t, SIM_CONFIG + "sv_range = nan,2\n"),
    "simulate-sv-range-zero": lambda t: _sim_config(t, SIM_CONFIG + "sv_range = 0,0\n"),
    "noise-spectrum-both-forms": lambda t: ["noise-spectrum", "--q1", "0.2", "--q2", "0.3",
                                            "--n", "100", "--r1", "30", "--r2", "40",
                                            "--out", str(t / "x.json")],
    "noise-spectrum-partial-sampling-form": lambda t: ["noise-spectrum", "--n", "40", "--r1", "5",
                                                       "--out", str(t / "x.json")],
    "noise-spectrum-no-form": lambda t: ["noise-spectrum", "--out", str(t / "x.json")],
    "decompose-ranks-not-integers": lambda t: _ranked_views(t, ["--ranks", "a,3"]),
    "decompose-ranks-count": lambda t: _ranked_views(t, ["--ranks", "3,3,3"]),
    "decompose-missing-view": lambda t: ["decompose", "--view", str(write_noiseless_views(t)[0]),
                                         "--view", str(t / "missing.csv"),
                                         "--out", str(t / "r.json")],
    "diagnose-missing-result": lambda t: ["diagnose", "--result", str(t / "missing.json"),
                                          "--svg", str(t / "p.svg")],
    "result-binding-pair-repeated": lambda t: _edited_result(
        t, lambda d: d.update(binding_pair=[0, 0])),
    "simulate-line-without-equals": lambda t: _sim_config(t, SIM_CONFIG + "reps 2\n"),
    "simulate-missing-key": lambda t: _sim_config(t, SIM_CONFIG.replace("snrs = 8\n", "")),
    "simulate-zero-n": lambda t: _sim_config(t, SIM_CONFIG.replace("n = 24", "n = 0").replace(
        "joint_rank = 2\nindividual_ranks = 2,2", "joint_rank = 0\nindividual_ranks = 0,0")),
    "simulate-zero-p": lambda t: _sim_config(t, SIM_CONFIG.replace("p = 30,34", "p = 30,0").replace(
        "joint_rank = 2\nindividual_ranks = 2,2", "joint_rank = 0\nindividual_ranks = 0,0")),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_cli_hostile_input_exit_code(tmp_path, capsys, case):
    argv = HOSTILE[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["decompose-missing-view", "diagnose-missing-result"])
def test_cli_missing_file_is_an_io_error(tmp_path, capsys, case):
    argv = HOSTILE[case](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: io: ")


def test_diagnose_names_the_result_file_for_a_fractional_count(tmp_path, capsys):
    argv = HOSTILE["result-n-fractional"](tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    n = json.loads((tmp_path / "result.json").read_text())["n"]
    assert capsys.readouterr().err == (
        f"error: invalid input: {tmp_path / 'result.json'}: not a decomposition result file "
        f"(n must be an integer, got {n!r})\n")


def test_readme_simulation_config_parses(tmp_path):
    # The README's example, comments after values included, is a valid config.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"\*\*Simulation config\*\*.*?```\n(.*?)```", readme, flags=re.S).group(1)
    path = tmp_path / "grid.cfg"
    path.write_text(block)
    cfg = _parse_simulation_config(str(path))
    assert cfg["bootstrap_reps"] == 100 and cfg["sv_range"] == (1.0, 2.0)
    assert cfg["dims"] == (80, 100) and cfg["rank_modes"] == ("estimated", "over", "under")


def test_simulate_cmd_warns_once_per_failed_rep(tmp_path, capsys):
    # Ranks 6 + 6 cannot be embedded orthogonally in n = 10: every rep is
    # infeasible, each is reported, and the table still gets written.
    argv = _sim_config(tmp_path, "n = 10\np = 20,20\njoint_rank = 4\nindividual_ranks = 2,2\n"
                                 "angles = 90\nsnrs = 8\nrank_modes = true\nreps = 3\n"
                                 "bootstrap_reps = 4\n")
    capsys.readouterr()
    assert main(argv) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 3
    assert all(w.startswith("warning: cell (90.0, 8.0, true): rep ") and "cannot embed" in w
               for w in warnings)
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[6] == "0"


def test_decompose_cmd_end_to_end_monte_carlo(tmp_path):
    # Simulated two-view draws written to CSV and decomposed through the CLI
    # recover the planted joint rank in nearly every seed.
    hits = 0
    for seed in range(50):
        cfg = ppd.SimConfig(n=50, dims=(80, 100), joint_rank=4,
                            individual_ranks=(5, 4), angle_deg=90.0, snr=2.0,
                            seed=seed)
        views, _ = ppd.generate(cfg)
        p1 = tmp_path / f"v1_{seed}.csv"
        p2 = tmp_path / f"v2_{seed}.csv"
        write_matrix_csv(p1, views[0])
        write_matrix_csv(p2, views[1])
        out = tmp_path / f"res_{seed}.json"
        rc = main(["decompose", "--view", str(p1), "--view", str(p2),
                   "--ranks", "9,8", "--bootstrap-reps", "24",
                   "--seed", str(seed), "--out", str(out)])
        assert rc == 0
        hits += json.loads(out.read_text())["joint_rank"] == 4
    assert hits >= 45


def test_cli_bootstrap_infeasible_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(5)
    p1 = tmp_path / "v1.csv"
    p2 = tmp_path / "v2.csv"
    write_matrix_csv(p1, rng.standard_normal((10, 20)))
    write_matrix_csv(p2, rng.standard_normal((10, 22)))
    rc = main(["decompose", "--view", str(p1), "--view", str(p2),
               "--ranks", "6,6", "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "bootstrap infeasible" in capsys.readouterr().err


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(n=st.integers(4, 30), data=st.data())
def test_cli_infeasible_ranks_property(n, data):
    # Any explicit ranks with r1 + r2 > n exit 3, whatever the shapes.
    p1 = data.draw(st.integers(2, 40), label="p1")
    p2 = data.draw(st.integers(max(2, n + 1 - min(n, p1)), 40), label="p2")
    r1 = data.draw(st.integers(max(1, n + 1 - min(n, p2)), min(n, p1)), label="r1")
    r2 = data.draw(st.integers(n + 1 - r1, min(n, p2)), label="r2")
    rng = np.random.default_rng(n * 1000 + r1 * 50 + r2)
    with tempfile.TemporaryDirectory() as tmp:
        args = _write_views(Path(tmp), [rng.standard_normal((n, p)) for p in (p1, p2)])
        rc = main(["decompose", *args, "--ranks", f"{r1},{r2}", "--bootstrap-reps", "2",
                   "--out", str(Path(tmp) / "r.json")])
    assert rc == 3


def _write_views(tmp_path, views, tag="v"):
    args = []
    for k, v in enumerate(views):
        p = tmp_path / f"{tag}{k}.csv"
        write_matrix_csv(p, v)
        args += ["--view", str(p)]
    return args


def test_decompose_cmd_extreme_view_scale(tmp_path):
    # A view scaled by 1e100 must decompose like the unscaled one, not overflow.
    cfg = ppd.SimConfig(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4),
                        angle_deg=30.0, snr=2.0, seed=3)
    views, _ = ppd.generate(cfg)
    ranks = []
    for scale in (1.0, 1e100):
        out = tmp_path / "r.json"
        rc = main(["decompose", *_write_views(tmp_path, [views[0] * scale, views[1]]),
                   "--bootstrap-reps", "20", "--seed", "1", "--out", str(out)])
        assert rc == 0
        ranks.append(json.loads(out.read_text())["joint_rank"])
    assert ranks[0] == ranks[1]


@pytest.mark.parametrize("dims,individual_ranks", [((60, 70), (3, 3)), ((40, 45, 50), (4, 3, 3))],
                         ids=["two", "three"])
def test_diagnose_cmd_result_matches_decompose(tmp_path, dims, individual_ranks):
    cfg = ppd.SimConfig(n=35, dims=dims, joint_rank=3, individual_ranks=individual_ranks,
                        angle_deg=60.0, snr=2.0, seed=9)
    views, _ = ppd.generate(cfg)
    result_path = tmp_path / "result.json"
    assert main(["decompose", *_write_views(tmp_path, views), "--bootstrap-reps", "20",
                 "--seed", "5", "--out", str(result_path),
                 "--diagnostic", str(tmp_path / "a.svg"),
                 "--diagnostic-json", str(tmp_path / "a.json")]) == 0
    assert main(["diagnose", "--result", str(result_path), "--svg", str(tmp_path / "b.svg"),
                 "--json", str(tmp_path / "b.json")]) == 0
    for ext in ("svg", "json"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()

    loaded = _load_result_json(str(result_path))
    direct = ppd.decompose_multiview(views, bootstrap=ppd.BootstrapConfig(replicates=20, seed=5))
    assert np.array_equal(loaded.spectrum.values, direct.spectrum.values)
    assert loaded.spectrum.bootstrap_threshold == direct.spectrum.bootstrap_threshold
    assert loaded.spectrum.noise_threshold == direct.spectrum.noise_threshold
    assert loaded.marginal_ranks == direct.marginal_ranks
    assert loaded.joint_rank == direct.joint_rank
    assert loaded.epsilon1_hat == direct.epsilon1_hat
    assert loaded.sigma_hats == direct.sigma_hats
    assert loaded.binding_pair == direct.binding_pair
    assert np.array_equal(loaded.joint, direct.joint)
    assert len(loaded.individuals) == len(direct.individuals)
    for got, want in zip(loaded.individuals, direct.individuals):
        assert np.array_equal(got, want)
