"""Per-layer tracing from outside the program.

Tracer.install() wraps every public function of the six pellab modules, in
every one of those namespaces that binds it (pellcore imports compose and
divrem from exactpoly, census imports Perm and standard_cycle from hurwitz
and permgroup), and the methods written in the source of the Perm and Poly
classes.  Each wrapped callable keeps a call count, its inclusive time
(outermost calls only, so recursion is not counted twice) and its self time:
duration minus the time spent in wrapped callables it called.  There are no
per-call spans: census --n 8 alone builds about 286k Perm objects, so a
callable's record is a count and two sums.  uninstall() restores every
binding.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType

MODULES = ("cli", "census", "hurwitz", "permgroup", "pellcore", "exactpoly")
CLASSES = (("permgroup", "Perm"), ("exactpoly", "Poly"))
# Element access is far finer than any layer; wrapping it would only add cost.
SKIP_METHODS = {"__call__", "coeff"}
RENAMED = {("Perm", "__init__"): "permgroup.Perm", ("Poly", "__mul__"): "exactpoly.mul"}


class Tracer:
    def __init__(self, package: ModuleType):
        self.modules = {name: getattr(package, name) for name in MODULES}
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s, depth]
        self.extra: dict[str, float] = {}
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- hooks: work counts taken from arguments and results --------------------

    def _count(self, name: str, amount: float = 1) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount

    def _hooks(self) -> dict:
        perm = self.stats.setdefault("permgroup.Perm", [0, 0.0, 0.0, 0])

        def brute(args, out, perms_before):
            self._count("census.brute_force_enumerate.tuples", len(out))
            self._count("census.brute.perms", perm[0] - perms_before)

        def mul(args, out, _):
            a, b = args
            if a.degree >= 0 and b.degree >= 0:
                self._count("exactpoly.mul.coeff_ops", (a.degree + 1) * (b.degree + 1))
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in out.coeffs), default=0)
            if bits > self.extra.get("exactpoly.coeff_bits_max", 0):
                self.extra["exactpoly.coeff_bits_max"] = bits

        return {
            "census.brute_force_enumerate": (lambda: perm[0], brute),
            "census.enumerate_shapes": (
                None, lambda a, out, _: self._count("census.enumerate_shapes.tuples", len(out))),
            "hurwitz.power_test": (
                None, lambda a, out, _: self._count("hurwitz.power_test.hits", bool(out))),
            "pellcore.extract_mth_root": (
                None, lambda a, out, _: self._count("pellcore.extract_mth_root.hits", out is not None)),
            "exactpoly.mul": (None, mul),
        }

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, key: str, fn, hook):
        st = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        before, after = hook if hook else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before() if before else None
            stack.append(0.0)
            st[3] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[3] -= 1
                st[0] += 1
                st[2] += dt - stack.pop()
                if not st[3]:
                    st[1] += dt
                stack[-1] += dt
            if after:
                h0 = clock()
                after(args, out, token)
                stack[-1] += clock() - h0  # hook time is nobody's self time
            return out

        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        for short, cls_name in CLASSES:
            module = self.modules[short]
            cls = getattr(module, cls_name)
            source = inspect.getsourcefile(module)
            for name, attr in list(vars(cls).items()):
                fn = attr.__func__ if isinstance(attr, staticmethod) else attr
                if (not inspect.isfunction(fn) or name in SKIP_METHODS
                        or fn.__code__.co_filename != source):
                    continue  # properties and dataclass-generated methods
                key = RENAMED.get((cls_name, name), f"{short}.{cls_name}.{name}")
                wrapped = self._wrap(key, fn, hooks.get(key))
                if isinstance(attr, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._undo.append((cls, name, attr))
                setattr(cls, name, wrapped)

        wrappers: dict[int, object] = {}
        for short, module in self.modules.items():
            for name, obj in vars(module).items():
                defined_here = getattr(obj, "__module__", None) == module.__name__
                if name.startswith("_") or not defined_here or inspect.isclass(obj):
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    key = f"{short}.{name}"
                    wrappers[id(obj)] = (obj, self._wrap(key, obj, hooks.get(key)))
        for module in self.modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)][1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0])[1]

    def self_seconds(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[2]

    def module_self_seconds(self, short: str) -> float:
        return sum(st[2] for key, st in self.stats.items() if key.split(".")[0] == short)

    def count(self, name: str) -> float:
        return self.extra.get(name, 0)
