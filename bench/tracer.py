"""Spans around trisub's layer boundaries, installed from outside.

instrument() wraps each function named in FUNCTIONS and METHODS and
rebinds every name under which a trisub module holds it (for example
verify.child_edges and cli.limit_shape_info as well as
subdivision.child_edges, and the entries of cli._HANDLERS), so calls
between modules pass through the wrapper too.  Nothing inside src/ changes.

Spans are aggregated as they close rather than stored one by one: a
Poincare render makes ~10^5 geodesic_point calls per operation.  The
table keeps, per (label, parent span, span), the call count, the total
time and the self time (total minus the time of child spans).  The label
is set by the workload per operation (the verify suite name).
"""

import sys
import time

# (span name, module, attribute)
FUNCTIONS = (
    ("hyptrig.angles_from_edges", "trisub.hyptrig", "angles_from_edges"),
    ("hyptrig.edges_from_angles", "trisub.hyptrig", "edges_from_angles"),
    ("hyptrig.medial_data", "trisub.hyptrig", "medial_data"),
    ("hyptrig.area_from_edges", "trisub.hyptrig", "area_from_edges"),
    ("hyptrig.sin_angles", "trisub.hyptrig", "_sin_angles"),
    ("subdivision.apply", "trisub.subdivision", "apply"),
    ("subdivision.child_edges", "trisub.subdivision", "child_edges"),
    ("subdivision.limit_shape_info", "trisub.subdivision", "limit_shape_info"),
    ("symbolic.address_exact", "trisub.symbolic", "address_exact"),
    ("symbolic.equivalent", "trisub.symbolic", "equivalent"),
    ("symbolic.match_prop31", "trisub.symbolic", "match_prop31"),
    ("plane_model.geodesic_point", "trisub.plane_model", "geodesic_point"),
    ("plane_model.dist", "trisub.plane_model", "dist"),
    ("plane_model.midpoint", "trisub.plane_model", "midpoint"),
    ("plane_model.to_disk", "trisub.plane_model", "to_disk"),
    ("render.cell_children", "trisub.render", "cell_children"),
    ("render.render_svg", "trisub.render", "render_svg"),
    ("render.write", "trisub.cli", "_cmd_render"),
    ("cli.main", "trisub.cli", "main"),
    ("cli.parse", "trisub.cli", "build_parser"),
    ("fmt.dumps", "trisub._fmt", "dumps"),
    ("verify.run_suite", "trisub.verify", "run_suite"),
    ("verify.lemma21", "trisub.verify", "run_lemma21"),
    ("verify.area", "trisub.verify", "run_area_bounds"),
    ("verify.ratiolimit", "trisub.verify", "run_ratio_limit"),
    ("verify.cauchy", "trisub.verify", "run_cauchy_bound"),
    ("verify.angleratio", "trisub.verify", "run_angle_ratio"),
    ("verify.noncontraction", "trisub.verify", "run_noncontraction"),
    ("verify.eq1probe", "trisub.verify", "run_eq1_probe"),
    ("verify.continuity", "trisub.verify", "run_continuity"),
    ("verify.surjectivity", "trisub.verify", "run_surjectivity"),
    ("scipy.minimize", "scipy.optimize", "minimize"),
)

# (span name, module, class, method)
METHODS = (
    ("shape.validate", "trisub.shape", "AngleShape", "__post_init__"),
    ("shape.validate", "trisub.shape", "EdgeLengths", "__post_init__"),
    ("shape.record", "trisub.shape", "ShapeRecord", "__init__"),
    ("symbolic.parse", "trisub.symbolic", "SymbolSequence", "parse"),
    ("cli.parse", "trisub.cli", "_Parser", "parse_args"),
)


class Tracer:
    def __init__(self):
        self.label = None
        self.stack = []  # open spans: [name, time spent in child spans]
        self.agg = {}    # (label, parent, name) -> [calls, total_s, self_s]

    def wrap(self, name, fn):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                key = (self.label, parent[0] if parent else None, name)
                row = agg.get(key)
                if row is None:
                    row = agg[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += dur
                row[2] += dur - frame[1]
        span.__wrapped__ = fn
        return span

    def table(self):
        """Aggregated spans as a list of JSON-ready rows."""
        return [{"label": lab, "parent": par, "span": name, "calls": c,
                 "total_ms": 1e3 * tot, "self_ms": 1e3 * own}
                for (lab, par, name), (c, tot, own) in sorted(
                    self.agg.items(), key=lambda kv: [str(x) for x in kv[0]])]


def _rebind(orig, wrapper):
    # module globals, and module-level dispatch tables such as cli._HANDLERS
    for modname, mod in list(sys.modules.items()):
        if modname == "trisub" or modname.startswith("trisub."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is orig:
                            value[key] = wrapper


def instrument(tracer):
    """Wrap every listed function and method of the imported program."""
    for name, modname, attr in FUNCTIONS:
        mod = sys.modules.get(modname)
        if mod is None:  # the workload never imported it
            continue
        orig = getattr(mod, attr)
        wrapper = tracer.wrap(name, orig)
        setattr(mod, attr, wrapper)
        _rebind(orig, wrapper)
    for name, modname, clsname, attr in METHODS:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        cls = getattr(mod, clsname)
        orig = getattr(cls, attr)
        if isinstance(vars(cls).get(attr), classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, orig.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(name, orig))
