"""Malformed input files fed to `cli.main`: the exit code is 0 (the input
was valid after all) or 1 (an input error), never 2, which is kept for
bugs. Inputs stay tiny so that any valid example also runs fast."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from motion_lsmd import cli, fileio

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

small_int = st.integers(-3, 40).map(str)
junk = st.text(alphabet=list("0123456789,=.-+#xe \té"), max_size=10)
token = st.one_of(
    small_int,
    junk,
    st.sampled_from(["", "burst", "swap", "0.5", "-1.5", "1e-3", "nan", "inf", "-inf", "true", "P5"]),
)
csv_row = st.lists(token, max_size=4).map(",".join)


def text_file(lines):
    """A text file of the given lines, or arbitrary bytes."""
    return st.one_of(
        st.lists(lines, max_size=6).map(lambda ls: ("\n".join(ls) + "\n").encode("utf-8")),
        st.binary(max_size=40),
    )


def with_header(headers, row=csv_row):
    """A CSV file whose header is one of `headers` or junk."""
    return st.builds(lambda h, rows: [h, *rows], st.one_of(st.sampled_from(headers), junk),
                     st.lists(row, max_size=5)).map(lambda ls: ("\n".join(ls) + "\n").encode("utf-8"))


def kv_line(keys):
    return st.one_of(
        st.builds(lambda k, sep, v: f"{k}{sep}{v}", st.one_of(st.sampled_from(keys), junk),
                  st.sampled_from([" = ", "=", " ", ""]), st.one_of(token, csv_row)),
        junk,
        st.just("# comment"),
    )


events_file = st.one_of(with_header(["start,end,peak", "start,end,kind", "start,end", "end,start"]), text_file(csv_row))
report_file = st.one_of(
    with_header(["name,total_frames,num_events,correct_detections"],
                st.one_of(st.lists(token, min_size=4, max_size=4).map(",".join), csv_row)),
    st.binary(max_size=40),
)
spec_file = text_file(kv_line(["h", "w", "n_frames", "event", "depth"]))
config_file = text_file(kv_line(["lsmd.mu_L", "lsmd.mu_S", "lsmd.lambda_l1", "lsmd.max_iter", "lsmd.k",
                                 "lsmd.rel_tol", "pipeline.seed", "detector.tau_off", "lsmd.nope"]))
matrix_file = st.one_of(
    st.builds(lambda h, dims, rows: "\n".join([h, dims, *rows]) + "\n",
              st.one_of(st.just("rows,cols"), junk),
              st.one_of(st.builds(lambda r, c: f"{r},{c}", st.integers(-2, 4), st.integers(-2, 6)), csv_row),
              st.lists(st.lists(st.one_of(st.floats(-3, 3).map(repr), token), min_size=1, max_size=6)
                       .map(",".join), max_size=5)).map(lambda s: s.encode("utf-8")),
    st.binary(max_size=40),
)


@st.composite
def pgm_file(draw):
    """A P5 header with fuzzed fields and separators, then a payload that
    is often exactly the size the header asks for."""
    dim = st.integers(-1, 20)
    w, h = draw(dim), draw(dim)
    fields = [
        draw(st.sampled_from([b"P5", b"P5", b"P5", b"P2", b"", b"P5#c\n"])),
        draw(st.one_of(st.just(str(w).encode()), st.binary(max_size=3))),
        str(h).encode(),
        draw(st.sampled_from([b"255", b"255", b"255", b"65535", b"0", b"x"])),
    ]
    header = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n", b""])).join(fields) + b"\n"
    size = draw(st.one_of(st.just(max(w * h, 0)), st.integers(0, 450)))
    return header + draw(st.binary(min_size=size, max_size=size))


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def assert_not_a_bug(rc: int, err: str) -> None:
    assert rc in (0, 1), err
    if rc == 1:
        assert err.startswith("error: "), err


def write(root: Path, name: str, data: bytes) -> Path:
    path = root / name
    path.write_bytes(data)
    return path


def tiny_matrix(root: Path) -> Path:
    path = root / "m.csv"
    fileio.write_matrix_csv(path, np.random.default_rng(0).standard_normal((3, 5)))
    return path


class TestCliFuzz:
    @FUZZ
    @given(events=events_file, truth=events_file)
    @example(events=b"\x80", truth=b"start,end,kind\n")  # not UTF-8
    def test_events_and_truth(self, events, truth):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            args = ["eval", "--events", write(root, "e.csv", events), "--truth", write(root, "t.csv", truth),
                    "--name", "clip", "--append", root / "report.csv"]
            assert_not_a_bug(*run(args))

    @FUZZ
    @given(report=report_file)
    @example(report=b"name,total_frames,num_events,correct_detections\n0,0,0,\n")
    def test_report_to_extend(self, report):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            truth = write(root, "t.csv", b"start,end,kind\n2,8,burst\n")
            args = ["eval", "--events", truth, "--truth", truth, "--name", "clip",
                    "--append", write(root, "report.csv", report)]
            assert_not_a_bug(*run(args))

    @FUZZ
    @given(spec=spec_file)
    @example(spec=b"n_frames = 0\n")
    def test_synth_spec(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            assert_not_a_bug(*run(["synth", "--spec", write(root, "spec.cfg", spec), "--out-dir", root / "out"]))

    @FUZZ
    @given(config=config_file)
    def test_config_file(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            args = ["decompose", tiny_matrix(root), "--config", write(root, "c.cfg", config),
                    "--out-prefix", root / "dec"]
            assert_not_a_bug(*run(args))

    @FUZZ
    @given(matrix=matrix_file)
    @example(matrix=b"rows,cols\n0,0\n")
    @example(matrix=b"rows,cols\n1,-1\n0.5\n")
    def test_matrix_csv(self, matrix):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            assert_not_a_bug(*run(["decompose", write(root, "m.csv", matrix), "--out-prefix", root / "dec"]))

    @FUZZ
    @given(first=pgm_file(), second=pgm_file())
    @example(first=b"P5 1 1 255\n\x00", second=b"P5 1 1 255\n\x00")  # below 8x8
    def test_pgm_headers(self, first, second):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            frames = root / "frames"
            frames.mkdir()
            write(frames, "0000.pgm", first)
            write(frames, "0001.pgm", second)
            args = ["detect", frames, "--out", root / "s.csv", "--events", root / "e.csv"]
            assert_not_a_bug(*run(args))
