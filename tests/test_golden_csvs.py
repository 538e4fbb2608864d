import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_csvs.py"
_spec = importlib.util.spec_from_file_location("golden_csvs", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _out(root: Path, value: float, code: int, extra: bool = False) -> Path:
    d = root / "gaussian-grid-seed1"
    d.mkdir(parents=True)
    (d / "s.csv").write_text(f"t,purity\r\n0,1\r\n0.5,{value!r}\r\n",
                             encoding="utf-8")
    (d / "exit_codes.txt").write_text(f"s 0\ns-oracle {code}\n",
                                      encoding="utf-8")
    if extra:
        (d / "extra.csv").write_text("t\r\n0\r\n", encoding="utf-8")
    return root


def test_identical_outputs_compare_equal(tmp_path, capsys):
    a = _out(tmp_path / "a", 0.75, 0)
    b = _out(tmp_path / "b", 0.75, 0)
    assert golden.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "0 difference(s)\n"


def test_differences_listed_to_the_ulp(tmp_path):
    x = 0.7
    y = math.nextafter(math.nextafter(math.nextafter(x, 1.0), 1.0), 1.0)
    a = _out(tmp_path / "a", x, 0)
    b = _out(tmp_path / "b", y, 2, extra=True)
    lines = golden.compare(a, b)
    assert lines == [
        "gaussian-grid-seed1/exit_codes.txt: 's-oracle 0' vs 's-oracle 2'",
        f"gaussian-grid-seed1/extra.csv: only in {b}",
        f"gaussian-grid-seed1/s.csv: row 2, purity: {x.hex()} vs {y.hex()} "
        "(3 ulp)",
    ]
    assert golden.main(["--compare", str(a), str(b)]) == 1


def test_ulp_distance_across_zero():
    tiny = float.fromhex("0x0.0000000000001p-1022")
    assert golden._ordinal(tiny) - golden._ordinal(-tiny) == 2
    assert golden._ordinal(0.0) == golden._ordinal(-0.0) == 0


def test_summary_by_column(tmp_path, capsys):
    # the relative change of a cell that was 0 is 1, whatever its ulps
    x, y = 0.5, 0.5 + 2.0 ** -52
    for side, (v, d) in (("a", (x, 0.0)), ("b", (y, 1e-17))):
        out = tmp_path / side / "gaussian-grid-seed1"
        out.mkdir(parents=True)
        (out / "s.csv").write_text(f"t,x,x_absdiff\r\n0,1,0\r\n"
                                   f"0.5,{v!r},{d!r}\r\n", encoding="utf-8")
    assert golden.main(["--compare", str(tmp_path / "a"),
                        str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "2 difference(s)",
        "x: 1 cell(s) changed, max |Δ| 2.22e-16, max relative Δ 4.44e-16",
        "x_absdiff: 1 cell(s) changed, max |Δ| 1e-17, max relative Δ 1",
        "gaussian-grid-seed1/s.csv: 2 cell(s) changed",
    ]

