"""Per-layer metrics from the span aggregates of traced repetitions.

Every traced repetition carries three aggregates (see instrument.Tracer):
the workload's units, the set-up, and a fixed probe run after the
workload.  Shares and counts come from the workload alone.  A per-call
figure comes from the workload when it calls that function, and otherwise
from the set-up and the probe, so it is measured on every workload.
"""

from __future__ import annotations

import statistics

LAYERS = ("tableau", "analysis", "optimizer", "controller", "integrator", "problems", "bench")
RHS = ("vdp", "brusselator", "advection", "euler")
PDE = ("advection", "euler")
KINDS = ("i", "pi", "pid", "gustafsson")
CALLS, INCL, SELF = 0, 1, 2


def merge(traces) -> dict:
    spans, samples, evals = {}, {}, 0
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, xs in t["samples"].items():
            samples.setdefault(name, []).extend(xs)
        evals += t["cost_evals"]
    return {"spans": spans, "samples": samples, "cost_evals": evals}


def total(t, names, field) -> float:
    return sum(t["spans"].get(n, (0, 0.0, 0.0))[field] for n in names)


def rep_metrics(rep, cells) -> tuple[dict, dict]:
    work = merge(rep["traces"])
    setup = rep["setup_trace"]
    aux = merge([setup, rep["probe_trace"]])
    wall = rep["wall_s"]

    def source(names):
        return work if total(work, names, CALLS) > 0 else aux

    def per_call(names, field=INCL, denom=None):
        """Seconds per call of ``names`` (or per call of ``denom``)."""
        t = source(denom or names)
        n = total(t, denom or names, CALLS)
        return total(t, names, field) / n if n else 0.0

    m = {}
    for p in RHS:
        m[f"problems.rhs_us_per_call.{p}"] = (1e6 * per_call([f"problems.rhs.{p}"]), "us")
    for p in PDE:
        sec = per_call([f"problems.rhs.{p}"])
        m[f"problems.rhs_cells_per_s.{p}"] = (cells[p] / sec if sec else 0.0, "1/s")
    rhs_self = total(work, [f"problems.rhs.{p}" for p in RHS], SELF)
    m["problems.rhs_share"] = (rhs_self / wall, "frac")
    m["problems.fev"] = (rep["fev"], "count")

    step = ["integrator.rk_step"]
    m["integrator.step_self_us"] = (1e6 * per_call(step, SELF), "us")
    m["integrator.norm_us"] = (1e6 * per_call(["integrator.error_norm"]), "us")
    m["integrator.loop_us"] = (1e6 * per_call(["integrator.integrate_adaptive"], SELF, denom=step), "us")
    m["integrator.initial_step_us"] = (1e6 * per_call(["integrator.initial_step"], SELF), "us")
    m["integrator.fixed_step_self_us"] = (1e6 * per_call(["integrator.rk_step.fixed"], SELF), "us")
    propose = [f"controller.propose_factor.{k}" for k in KINDS]
    t = source(propose)
    m["integrator.accept_ratio"] = (
        total(t, ["controller.on_accept"], CALLS) / total(t, propose, CALLS), "frac")
    m["integrator.attempts"] = (rep["attempts"], "count")
    m["integrator.fev_undercount"] = (rep["fev_unreported"] / rep["solves"] if rep["solves"] else 0.0, "count")
    m["integrator.global_err_max"] = (rep["global_err_max"], "l2")

    for k in KINDS:
        names = [f"controller.propose_factor.{k}"]
        t = source(names)
        m[f"controller.reject_ratio.{k}"] = (
            total(t, [f"controller.on_reject.{k}"], CALLS) / total(t, names, CALLS), "frac")
    ctl = [n for n in source(propose)["spans"] if n.startswith("controller.")]
    m["controller.us_per_attempt"] = (1e6 * per_call(ctl, INCL, denom=propose), "us")

    both = merge([setup] + rep["traces"])
    m["tableau.resolve_calls"] = (total(both, ["tableau.resolve"], CALLS), "count")
    m["tableau.resolve_s"] = (total(both, ["tableau.resolve"], SELF), "s")
    m["tableau.derive_w_s"] = (rep["derive_w_s"], "s")

    opt = ["optimizer.optimize_embedded"]
    t = work if work["cost_evals"] else setup
    m["optimizer.cost_evals"] = (work["cost_evals"], "count")
    m["optimizer.us_per_eval"] = (1e6 * total(t, opt, INCL) / t["cost_evals"], "us")

    for metric, fn, scale, unit in (
        ("analyze_ms", "analyze_method", 1e3, "ms"),
        ("ssp_coefficient_ms", "ssp_coefficient_arrays", 1e3, "ms"),
        ("radii_ms", "stability_radii", 1e3, "ms"),
        ("error_measures_us", "error_measures", 1e6, "us"),
        ("classify_order_us", "classify_order", 1e6, "us"),
        ("non_defective_us", "is_non_defective", 1e6, "us"),
    ):
        m[f"analysis.{metric}"] = (scale * per_call([f"analysis.{fn}"]), unit)

    for p in ("vdp", "brusselator", "advection"):
        m[f"bench.reference_s.{p}"] = (per_call([f"bench.reference_endpoint.{p}"]), "s")
    rows = work["samples"].get("bench.run_single") or aux["samples"]["bench.run_single"]
    rows = sorted(rows)
    m["bench.row_ms_p50"] = (1e3 * statistics.median(rows), "ms")
    m["bench.row_ms_p90"] = (1e3 * rows[min(len(rows) - 1, int(0.9 * len(rows)))], "ms")

    split = {layer: total(work, [n for n in work["spans"] if n.startswith(layer + ".")], SELF)
             for layer in LAYERS}
    for layer, sec in split.items():
        m[f"{layer}.self_share"] = (sec / wall, "frac")
    m["trace.remainder_share"] = ((wall - sum(split.values())) / wall, "frac")
    m["trace.wall_s"] = (wall, "s")
    return m, split


def per_layer(traced, untraced_wall) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over the traced repetitions, and the
    self-time split in seconds as table lines for people."""
    per_rep = [rep_metrics(r, r["cells"]) for r in traced]
    out = {}
    for key, (_, unit) in per_rep[0][0].items():
        out[key] = (statistics.median(m[key][0] for m, _ in per_rep), unit)
    traced_wall = statistics.median(r["wall_ref_s"] for r in traced)
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "frac")
    split = per_rep[0][1]
    w0 = traced[0]["wall_s"]
    table = [f"# self time, traced repetition 1 of {len(traced)} (wall {w0:.4f} s):"]
    for layer, sec in split.items():
        table.append(f"#   {layer:<11} {sec:10.4f} s  {sec / w0:7.2%}")
    rest = w0 - sum(split.values())
    table.append(f"#   {'remainder':<11} {rest:10.4f} s  {rest / w0:7.2%}")
    return out, table
