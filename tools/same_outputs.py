"""Write every output of some benchmark cycles, to compare two checkouts.

    python3 tools/same_outputs.py WORKLOAD SEED CYCLES OUT_DIR
    diff -r OUT_DIR_A OUT_DIR_B

Runs cycles 0..CYCLES-1 of the workload's ops, with inputs from
bench/inputs.py, through `wavebank.cli.main` of the checkout this file sits
in.  Op k gets OUT_DIR/k/: its job's output directory as files/, and
stdout, stderr and status.  In stdout and stderr the output directory reads
{out} and the input directory {in}.
"""

import argparse
import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # no __pycache__ under bench/
from inputs import WORKLOADS, Generator  # noqa: E402
from wavebank import cli  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("cycles", type=int)
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args()
    k = 0
    with tempfile.TemporaryDirectory() as tmp:
        gen, out = Generator(args.workload, args.seed, Path(tmp, "in")), Path(tmp, "out")
        for job in (job for c in range(args.cycles) for job in gen.cycle(c)):
            out.mkdir()
            for op in job:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        status = cli.main([a.replace("{out}", str(out)) for a in op.argv])
                    except SystemExit as exc:
                        status = exc.code
                dest = args.out_dir / f"{k:04d}"
                shutil.copytree(out, dest / "files")
                texts = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                         "status": f"{status}\n"}
                for name, text in texts.items():
                    text = text.replace(str(out), "{out}").replace(str(gen.root), "{in}")
                    (dest / name).write_text(text)
                k += 1
            shutil.rmtree(out)


if __name__ == "__main__":
    main()
