"""Span tracing of ngm's public functions, installed from outside the package.

`from .x import f` binds `f` early in every importing module, so a wrapper
is only seen if it replaces each of those bindings: `Tracer.install` wraps
every public function of the eight traced modules (plus the private
synthesis kernel, which the per-layer metrics need) and swaps it in
wherever any `ngm` module holds a reference.  Wrappers call the original
with the same arguments, so traced results are bit-identical.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, item, error]``
and written out once, after the run.
"""

import functools
import hashlib
import inspect
import json
import sys
import threading
import time

MODULES = ("fock", "numerics", "wigner", "measure", "channels", "fisher",
           "catalog", "cli")

# private functions traced anyway: the Wigner synthesis kernel
PRIVATE = {"wigner": ("_synthesize",)}

# state constructors, reported together as one layer
FOCK_BUILDERS = ("coherent", "cat", "displaced_squeezed", "gkp_logical",
                 "random_qudit", "apply_qubit_state", "displace_state",
                 "squeeze_state")

ALIASES = {
    "wigner._synthesize": "wigner.synth",
    "wigner.wigner_gradient": "wigner.gradient",
    "measure.wigner_entropy_real": "measure.entropy",
    "measure.measure_from_field": "measure.assemble",
    "channels.thermal_loss_fock": "channels.kraus",
    "channels.thermal_loss_phase_space": "channels.phase_space",
    **{f"fock.{name}": "fock.build" for name in FOCK_BUILDERS},
}

# per-layer metrics read from span names: (<span>.calls | <span>.self_s)
CALLS = ("wigner.synth", "wigner.gradient", "numerics.grid_weights",
         "numerics.integrate", "fock.build", "channels.kraus",
         "numerics.convolve_gaussian")
SELF = ("wigner.synth", "wigner.gradient", "wigner.moments",
        "wigner.negative_volume", "measure.entropy", "measure.assemble",
        "wigner.default_grid", "fock.state_moments", "fock.build",
        "channels.kraus", "channels.phase_space", "channels.rescale",
        "numerics.convolve_gaussian", "fisher.fisher_from_field",
        "fisher.debruijn_check", "fisher.measure_derivative_check",
        "catalog.run_preset", "catalog.build_state", "cli.main")


def _span_name(module, attr):
    name = f"{module}.{attr}"
    return ALIASES.get(name, name)


class Tracer:
    """Context manager: wraps ngm on entry, restores the originals on exit."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.synth = []  # (computed work, input digest) per synthesis
        self._raised = []
        self._local = threading.local()
        self._patched = []

    def __enter__(self):
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"ngm.{short}"]
            for attr, fn in vars(mod).items():
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                # a generator function returns before its work is done
                if inspect.isgeneratorfunction(fn):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                probe = self._probe_synth if attr == "_synthesize" else None
                wrappers[id(fn)] = (fn, self._wrap(_span_name(short, attr), fn, probe))
        for modname, mod in list(sys.modules.items()):
            if modname != "ngm" and not modname.startswith("ngm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            index = len(tracer.spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tracer.item, None]
            tracer.spans.append(span)
            if probe is not None:
                probe(*args, **kwargs)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, at the innermost span it left
                if not any(seen is exc for seen in tracer._raised):
                    tracer._raised.append(exc)
                    span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def _probe_synth(self, c, grid, with_grad):
        digest = hashlib.sha1(c.tobytes())
        digest.update(grid.q.tobytes())
        digest.update(grid.p.tobytes())
        work = c.shape[0] ** 2 * grid.shape[0] * grid.shape[1]
        self.synth.append((work, digest.hexdigest()))

    def layer_metrics(self, traced_wall, untraced_wall):
        """Per-layer metrics (counts, self seconds, errors) over all spans."""
        spans = self.spans
        child = [0] * len(spans)
        top = 0
        for span in spans:
            duration = span[2] - span[1]
            if span[3] >= 0:
                child[span[3]] += duration
            else:
                top += duration
        calls, self_ns = {}, {}
        for span, covered in zip(spans, child):
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_ns[span[0]] = self_ns.get(span[0], 0) + span[2] - span[1] - covered
        escalations = {}
        for span in spans:
            if span[0] == "channels.pure_loss_kraus" and span[3] >= 0 \
                    and spans[span[3]][0] == "channels.kraus":
                escalations[span[3]] = escalations.get(span[3], 0) + 1
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF:
            out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
        out["wigner.synth.work"] = sum(work for work, _ in self.synth)
        out["wigner.synth.distinct_frac"] = (
            len({key for _, key in self.synth}) / len(self.synth) if self.synth else 1.0
        )
        # each pass of the Kraus loop builds the loss operators once
        out["channels.kraus.escalations"] = sum(
            count - 1 for count in escalations.values()
        )
        for short in MODULES:
            out[f"{short}.errors"] = sum(
                1 for span in spans
                if span[5] is not None and span[0].split(".")[0] == short
            )
        out["trace.spans"] = len(spans)
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        out["trace.top_frac"] = top / 1e9 / traced_wall
        return out

    def write(self, path, header):
        """Write the header, then one JSON array per span, start time first."""
        origin = min((span[1] for span in self.spans), default=0)
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                row = [span[0], span[1] - origin, span[2] - origin] + span[3:]
                handle.write(json.dumps(row) + "\n")
