"""CLI stdout pinned byte for byte for the commands whose output depends
on the generators chosen for HR^n: `bundle classify`, `ext dd`, `ext
extract`, `ext sum` and `cup`, on the corpus groupoids with mu(2)_conj,
mu(4)_conj and Z2_trivial.

The input files and the expected stdout and exit code of every command
are kept in data/cli_pins.json.  `python tests/test_cli_pins.py` rebuilds
that file from the code as it stands, so run it only when a change of
output is meant."""

import json
import pathlib

from realcech import cli, io
from realcech.cochains import RealComplex
from realcech.coefficients import make_standard
from realcech.extensions import Z2, normalize_cocycle

from conftest import corpus_groupoids

PINS = pathlib.Path(__file__).parent / "data" / "cli_pins.json"
COEFFS = ("mu(2)_conj", "mu(4)_conj", "Z2_trivial")


def _generators(cx, n):
    """The representative cocycles of HR^n, their sum first (the zero
    cochain if the group is trivial)."""
    reps = [c for c, _ in cx.cohomology(n).representatives()]
    total = cx.zero_cochain(n)
    for c in reps:
        total = total + c
    return [total] + reps[:1]


def pin_commands():
    """(files, commands): input files by name, and the argv of every
    pinned command, naming its inputs by those names."""
    files, commands = {}, []
    for gname, g in corpus_groupoids():
        gfile = f"{gname}.json"
        files[gfile] = io.groupoid_to_json(g)
        deltas = _generators(RealComplex(g, Z2), 1)
        for i, d in enumerate(deltas):
            files[f"{gname}_delta{i}.json"] = d.serialize()
        for sname in COEFFS:
            cx = RealComplex(g, make_standard(sname))
            omegas = [normalize_cocycle(cx, w) for w in _generators(cx, 2)]
            twists = []
            for i, (om, d) in enumerate(zip(omegas, deltas[::-1])):
                twists.append(f"{gname}_{sname}_twist{i}.json")
                files[twists[-1]] = {"base": files[gfile], "S": {"preset": sname},
                                     "omega": om.serialize(), "delta": d.serialize()}
            d_first, d_last = f"{gname}_delta0.json", f"{gname}_delta{len(deltas) - 1}.json"
            commands += [["bundle", "classify", gfile, "--coeff", sname],
                         ["ext", "extract", twists[0]],
                         ["ext", "sum", twists[0], twists[-1]],
                         ["cup", gfile, "--coeff", sname,
                          "--delta", d_first, "--delta-prime", d_last]]
            commands += [["ext", "dd", tw] for tw in twists]
    return files, commands


def run_pinned(argv, files, folder, capsys):
    """(exit code, stdout) of the command argv, its input files written
    into folder."""
    args = []
    for a in argv:
        if a in files:
            path = folder / a
            if not path.exists():
                path.write_text(io.dumps(files[a]))
            a = str(path)
        args.append(a)
    code = cli.main(args)
    return code, capsys.readouterr().out


def test_cli_stdout_matches_pins(tmp_path, capsys):
    pins = json.loads(PINS.read_text())
    assert len(pins["commands"]) == 183
    for argv, code, out in pins["commands"]:
        assert run_pinned(argv, pins["files"], tmp_path, capsys) == (code, out), argv


if __name__ == "__main__":
    import contextlib
    import tempfile
    import types
    from io import StringIO

    class Capture(StringIO):
        """capsys for a plain run: what was printed since the last read."""

        def readouterr(self):
            out = self.getvalue()
            self.seek(0)
            self.truncate()
            return types.SimpleNamespace(out=out)

    files, commands = pin_commands()
    capture = Capture()
    with tempfile.TemporaryDirectory() as folder, contextlib.redirect_stdout(capture):
        rows = [[argv, *run_pinned(argv, files, pathlib.Path(folder), capture)]
                for argv in commands]
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps({"files": files, "commands": rows}, sort_keys=True) + "\n")
    print(f"{len(rows)} commands pinned in {PINS}")
