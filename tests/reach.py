"""Line reach: run the tier-1 tests under sys.settrace and print each line of
src/pellab that no test runs, grouped by function.

    python tests/reach.py              # the whole tier-1 suite
    python tests/reach.py tests/test_cli.py -k profile

Run it from the repository root; its arguments go to pytest as they are.  A
line counts as executable when a code object compiled from the file lists
it (co_lines), and as reached when a traced frame runs it.  Only frames
whose code lives in src/pellab are traced line by line.  The tests that run
the CLI in a child interpreter are not traced there, so a line that only
those runs reach is listed too.  Hypothesis deadlines are switched off for
the run, since tracing slows every example down.  The output ends with one
line that counts the unreached lines; the exit status is pytest's.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pellab"


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


def main(argv: list[str]) -> int:
    import threading

    import pytest

    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    reached: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        if frame.f_code.co_filename not in files:
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

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

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

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
