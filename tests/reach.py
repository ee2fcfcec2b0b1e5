"""Line reach: run the tier-1 tests under sys.settrace and print each line of
src/pellab that no test runs, grouped by function.

    python tests/reach.py              # the whole tier-1 suite
    python tests/reach.py tests/test_cli.py -k profile

Run it from the repository root; its arguments go to pytest as they are.  A
line counts as executable when a code object compiled from the file lists
it (co_lines), and as reached when a traced frame runs it.  Only frames
whose code lives in src/pellab are traced line by line.  Child
interpreters are traced too: the script writes a sitecustomize.py into a
temporary folder and puts the folder first on PYTHONPATH for the run, which
every child inherits (tests/test_cli.py's src_env() keeps the parent's
PYTHONPATH after src, and src holds no sitecustomize); the child runs the
same tracer from start-up and appends the lines it reached to a file in
that folder at exit.  A child started with -I ignores the environment and
is not traced, so a line that only such children run is still listed.
Hypothesis deadlines are switched off for the run, since tracing slows
every example down.  The output ends with one line that counts the
unreached lines; the exit status is pytest's.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pellab"
LINES = "reached.txt"
# The children's sitecustomize.py, formatted with the folder that holds it.
SITE = """\
import sys
sys.path.insert(0, {tests!r})
import reach
del sys.path[0]
reach.trace_child({folder!r})
"""


def executable_lines(path: Path) -> dict[int, str]:
    """Each line some code object of the file lists, with the function that
    holds it: the innermost def or class, or <module>.  Comprehensions and
    lambdas belong to the function they are written in."""
    owner: dict[int, str] = {}

    def walk(code, name: str) -> None:
        if not code.co_name.startswith("<") or code.co_name == "<module>":
            name = getattr(code, "co_qualname", code.co_name)
        owner.update((line, name) for _, _, line in code.co_lines() if line)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, name)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "<module>")
    return owner


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as runs: [3, 4, 5, 9] is "3-5, 9"."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def tracer(reached: set, files):
    """The global trace function that adds to reached each (file, line) run
    in a frame whose code lives in files."""

    def lines(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    return calls


def start(trace) -> None:
    import threading

    threading.settrace(trace)
    sys.settrace(trace)


def stop() -> None:
    import threading

    sys.settrace(None)
    threading.settrace(None)


def trace_child(folder: str) -> None:
    """Run in a child interpreter's sitecustomize: trace src/pellab from
    here on and append the lines reached to folder's lines file at exit."""
    import atexit

    reached: set[tuple[str, int]] = set()
    start(tracer(reached, {str(path) for path in SRC.glob("*.py")}))

    def save() -> None:
        stop()
        with open(Path(folder) / LINES, "a", encoding="utf-8") as out:
            out.writelines(f"{line}\t{name}\n" for name, line in reached)

    atexit.register(save)


def main(argv: list[str]) -> int:
    import tempfile

    import pytest

    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    reached: set[tuple[str, int]] = set()

    class NoDeadlines:
        @staticmethod
        def pytest_configure(config):
            # Imported here, once pytest can rewrite hypothesis's asserts.
            try:
                from hypothesis import settings
            except ImportError:
                return
            settings.register_profile("reach", deadline=None)
            settings.load_profile("reach")

    with tempfile.TemporaryDirectory(prefix="reach-") as folder:
        site = SITE.format(tests=str(Path(__file__).resolve().parent), folder=folder)
        (Path(folder) / "sitecustomize.py").write_text(site, encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [folder, path]))
        start(tracer(reached, files))
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[NoDeadlines()])
        finally:
            stop()
            if path is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = path
        children = Path(folder) / LINES
        if children.exists():
            for entry in children.read_text(encoding="utf-8").splitlines():
                line, name = entry.split("\t")
                reached.add((name, int(line)))

    unreached = 0
    for name, path in files.items():
        by_function: dict[str, list[int]] = {}
        for line, function in sorted(executable_lines(path).items()):
            if (name, line) not in reached:
                by_function.setdefault(function, []).append(line)
        if by_function:
            print(path.relative_to(SRC.parent.parent))
        for function, missed in by_function.items():
            print(f"  {function}: {ranges(missed)}")
            unreached += len(missed)
    print(f"{unreached} unreached lines in {SRC.relative_to(SRC.parent.parent)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
