"""Exhaustive (perfect) call-edge profiling.

Observes *every* dynamic call through the interpreter's call-observer
hook.  Two modes:

* ``charge_costs=False`` (default): a free oracle — the perfect profile
  the accuracy experiments compare against; adds no virtual time.
* ``charge_costs=True``: models real exhaustive instrumentation in the
  style of Vortex's PIC counters (paper §3.1), charging a per-call
  instrumentation cost so its overhead can be reported alongside the
  sampling techniques.
"""

from __future__ import annotations

from collections import Counter

from repro.profiling.dcg import DCG
from repro.vm.yieldpoint import YP_NONE

#: Virtual cost of one counter update in instrumented dispatch code.
INSTRUMENTATION_COST = 6


class ExhaustiveProfiler:
    """Records every call edge; optionally charges instrumentation cost."""

    def __init__(self, charge_costs: bool = False):
        self.dcg = DCG()
        self.method_samples: Counter = Counter()
        self.charge_costs = charge_costs
        self._vm = None

    def attach(self, vm) -> None:
        """Profiler-slot entry point (``vm.attach_profiler``), so the
        oracle can stand in wherever a sampling profiler is named: it
        installs the call observer and ignores ticks and yieldpoints."""
        self.install(vm)

    def handle_timer(self, vm) -> None:
        pass

    def handle_yieldpoint(self, vm, kind: int) -> None:
        vm.yieldpoint_flag = YP_NONE

    def install(self, vm) -> None:
        """Attach to ``vm``'s call-observer hook (not the profiler slot —
        an exhaustive profiler can run *alongside* a sampling profiler).
        Chains with any observer already installed."""
        self._vm = vm
        observe = self._observe_charged if self.charge_costs else self._observe
        existing = vm.call_observer
        if existing is None:
            vm.call_observer = observe
        else:
            def chained(caller, pc, callee, _first=existing, _second=observe):
                _first(caller, pc, callee)
                _second(caller, pc, callee)

            vm.call_observer = chained

    def _observe(self, caller: int, callsite_pc: int, callee: int) -> None:
        self.dcg.record(caller, callsite_pc, callee)
        self.method_samples[callee] += 1

    def _observe_charged(self, caller: int, callsite_pc: int, callee: int) -> None:
        self.dcg.record(caller, callsite_pc, callee)
        self.method_samples[callee] += 1
        self._vm.time += INSTRUMENTATION_COST
