"""Outside-in layer tracing for gradedpi.

The tracer replaces public functions and methods of the installed modules
with timing wrappers from the benchmark's side; nothing under ``src/`` is
changed.  Spans are aggregated in memory per name (calls, total time, self
time) instead of being stored one by one, because the hottest layers see
millions of calls in one campaign.  A span's self time is its duration minus
the time of the wrapped spans it directly contains.

Names that the library looks up at call time are patched where they are
looked up: ``pitool`` imports several functions by name, and ``_space``
imports ``kernel_over_real_subfield`` from ``scalars`` inside the function.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.cells: dict[str, list] = {}   # name -> [count or seconds]
        self._stack: list[list] = []       # child time of each open span
        self._targets_open = 0             # open target-space spans
        self.record_start = None           # start of the current record
        self.record_times: list[float] = []

    # -- primitives ---------------------------------------------------------

    def cell(self, name, start=0) -> list:
        """A named accumulator that wrappers update in place."""
        return self.cells.setdefault(name, [start])

    def wrap(self, name, fn, on_exit=None):
        """A wrapper that records one span of ``name`` per call of ``fn``;
        ``on_exit(result, self_s)`` runs after each call that returned."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child[0]
            if on_exit is not None:
                on_exit(result, dt - child[0])
            return result

        return traced

    def counted(self, name, fn):
        """A wrapper that only counts calls (no clock reads)."""
        cell = self.cell(name)

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def progress(self, record):
        """The ``progress`` callback of ``verify_basis``: one record ends."""
        if self.record_start is not None:
            self.record_times.append(time.perf_counter() - self.record_start)
            self.record_start = None

    # -- installation -------------------------------------------------------

    def install(self, algebras, cli, freealg, groups, pitool, scalars):
        """Patch the library's public entry points (see the module doc)."""
        kept = self.cell("scalars.echelon_add.kept")
        in_target = self.cell("scalars.echelon_add.target_s", 0.0)
        in_stream = self.cell("scalars.echelon_add.stream_s", 0.0)

        def echelon_exit(added, self_s):
            if added:
                kept[0] += 1
            if self._targets_open:
                in_target[0] += self_s
            else:
                in_stream[0] += self_s

        failed = self.cell("pitool.membership.failed")

        def identity_exit(result, _):
            if not result[0]:
                failed[0] += 1

        def central_exit(result, _):
            if result[0] == "neither":
                failed[0] += 1

        def target_enter(fn):
            """A target-space span, which also opens a record (see progress)."""
            wrapped = self.wrap("pitool.target", fn)

            def target(*args, **kwargs):
                if self.record_start is None:
                    self.record_start = time.perf_counter()
                self._targets_open += 1
                try:
                    return wrapped(*args, **kwargs)
                finally:
                    self._targets_open -= 1

            return target

        scalars.Echelon.add = self.wrap("scalars.echelon_add", scalars.Echelon.add,
                                        echelon_exit)
        scalars.kernel_over_real_subfield = self.wrap(
            "scalars.kernel", scalars.kernel_over_real_subfield)
        scalars.Cyclo.__mul__ = self.counted("scalars.cyclo_mul.calls",
                                             scalars.Cyclo.__mul__)
        scalars.Cyclo.inv = self.counted("scalars.cyclo_inv.calls", scalars.Cyclo.inv)
        groups.Bicharacter.eval = self.wrap("groups.bichar_eval", groups.Bicharacter.eval)
        algebras.GradedAlgebra.mul_vec = self.wrap("algebras.mul_vec",
                                                   algebras.GradedAlgebra.mul_vec)
        algebras.build_catalog = self.wrap("algebras.build_catalog",
                                           algebras.build_catalog)
        reorder = self.wrap("freealg.reorder_scalar", freealg.reorder_scalar)
        freealg.reorder_scalar = pitool.reorder_scalar = reorder
        pitool.multilinearize = self.wrap("freealg.multilinearize", pitool.multilinearize)
        pitool.multilinear_identity_space = target_enter(pitool.multilinear_identity_space)
        pitool.multilinear_central_space = target_enter(pitool.multilinear_central_space)
        pitool.is_identity = self.wrap("pitool.membership", pitool.is_identity,
                                       identity_exit)
        pitool.is_central = self.wrap("pitool.membership", pitool.is_central,
                                      central_exit)
        pitool.verify_basis = self.wrap("pitool.verify", pitool.verify_basis)
        pitool.check_pauli_multidegree = self.wrap("pitool.long_record",
                                                   pitool.check_pauli_multidegree)
        cli.resolve_basis = self.wrap("pitool.family", cli.resolve_basis)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers under the benchmark's metric names."""
        def span(name):
            return self.spans.get(name, [0, 0.0, 0.0])

        def cell(name):
            return self.cells.get(name, [0])[0]

        add = span("scalars.echelon_add")
        target = span("pitool.target")
        kernel = span("scalars.kernel")
        bichar = span("groups.bichar_eval")
        mul_vec = span("algebras.mul_vec")
        membership = span("pitool.membership")
        reorder = span("freealg.reorder_scalar")
        multilin = span("freealg.multilinearize")
        return {
            "scalars.echelon_add.calls": add[0],
            "scalars.echelon_add.kept": cell("scalars.echelon_add.kept"),
            "scalars.echelon_add.kept_ratio":
                cell("scalars.echelon_add.kept") / add[0] if add[0] else 0.0,
            "scalars.echelon_add.stream_s": cell("scalars.echelon_add.stream_s"),
            "scalars.echelon_add.target_s": cell("scalars.echelon_add.target_s"),
            "pitool.target.calls": target[0],
            "pitool.target.total_s": target[1],
            "pitool.target.self_s": target[2],
            "scalars.kernel.calls": kernel[0],
            "scalars.kernel.self_s": kernel[2],
            "groups.bichar_eval.calls": bichar[0],
            "groups.bichar_eval.self_s": bichar[2],
            "algebras.mul_vec.calls": mul_vec[0],
            "algebras.mul_vec.self_s": mul_vec[2],
            "pitool.membership.calls": membership[0],
            "pitool.membership.total_s": membership[1],
            "pitool.membership.failed": cell("pitool.membership.failed"),
            "freealg.reorder_scalar.calls": reorder[0],
            "freealg.reorder_scalar.self_s": reorder[2],
            "pitool.long_record.self_s": span("pitool.long_record")[2],
            "pitool.verify.self_s": span("pitool.verify")[2],
            "pitool.record.max_s": max(self.record_times
                                       + [span("pitool.long_record")[1]]),
            "algebras.build_catalog.s": span("algebras.build_catalog")[1],
            "pitool.family.s": span("pitool.family")[1],
            "freealg.multilinearize.calls": multilin[0],
            "freealg.multilinearize.self_s": multilin[2],
            "scalars.cyclo_mul.calls": cell("scalars.cyclo_mul.calls"),
            "scalars.cyclo_inv.calls": cell("scalars.cyclo_inv.calls"),
        }

    def calls(self) -> dict[str, int]:
        """Calls of every wrapped entry point, for the coverage check."""
        out = {name: stats[0] for name, stats in self.spans.items()}
        for name in ("scalars.cyclo_mul.calls", "scalars.cyclo_inv.calls"):
            out[name.rsplit(".", 1)[0]] = self.cells.get(name, [0])[0]
        return out
