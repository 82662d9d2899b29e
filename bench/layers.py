"""Per-layer spans and counts for the traced run.

``install`` wraps the public and internal module-level functions that
carry each layer's work; ``metrics`` turns the tracer's totals into the
``per_layer`` metrics of BENCHMARK.json.  The layers are the package
modules: quadrature, certificates, energy, jacobian, competitors and
blaschke (conformal and errors do no measurable work).
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np

# every traced module is imported here: rebind() finds them in sys.modules
from halfharm import blaschke, certificates, competitors, energy, jacobian, quadrature  # noqa: F401
from halfharm.energy import PlaneMap

from tracing import Tracer, rebind

# per-layer metrics of BENCHMARK.json that the parent process computes
# from all repetitions of a run; metrics() returns every other one
RUN_LEVEL = ("trace.overhead_frac", "fail_frac")

# functions whose calls become spans of the same name, by defining module
SPANNED = {
    "certificates": ("standard_certificates", "_f2_block", "_f2_profile", "F1_closed_or_quad"),
    "energy": ("halfspace_dirichlet_oracle", "_gradient_ring_density", "_kernel_panels",
               "hemisphere_tangential_energy"),
    "jacobian": ("pairing_volume", "halfball_energy_fd", "pairing_surface", "bcl_lower_bound"),
    "competitors": ("_zero_pull_kernel_table", "_unwinding_kernel_table",
                    "zero_pull_family_energy", "unwinding_family_energy",
                    "optimal_profile", "profile_energy", "G_of"),
}


def install(tracer: Tracer) -> None:
    """Rebind every traced function in every halfharm module that binds it.

    lru_cache functions are wrapped outside the cache, so a cache hit shows
    as a near-zero span.
    """

    def span(name, **hooks):
        return lambda fn: tracer.wrap(name, fn, **hooks)

    def count_points(args, kwargs, result):
        tracer.count("quadrature.integrand.points", np.size(args[0]))

    def wrap_integrand(args, kwargs):
        f = tracer.wrap("quadrature.integrand", args[0], observe=count_points)
        return (f,) + tuple(args[1:]), kwargs

    def quad_result(args, kwargs, result):
        tracer.count("quadrature.adaptive_integrate.panels", result.panels)
        if not result.converged:
            tracer.count("quadrature.adaptive_integrate.unconverged", 1)
            tracer.count(f"quadrature.adaptive_integrate.unconverged.in.{tracer.current()}", 1)

    rebind(quadrature.__name__, "adaptive_integrate",
           span("quadrature.adaptive_integrate", prepare=wrap_integrand, observe=quad_result))

    for module_name, attrs in SPANNED.items():
        for attr in attrs:
            rebind(f"halfharm.{module_name}", attr, span(f"{module_name}.{attr}"))

    pair_signature = inspect.signature(energy._pair_form)

    def outer_points(args, kwargs, result):
        bound = pair_signature.bind(*args, **kwargs).arguments
        tracer.count("energy._pair_form.outer_points", bound["n_x_r"] * bound["n_x_t"])

    rebind(energy.__name__, "_pair_form", span("energy._pair_form", observe=outer_points))

    for attr in ("eval_product", "derivative"):
        def evaluated(args, kwargs, result, key=f"blaschke.{attr}.points"):
            tracer.count(key, np.size(args[1] if len(args) > 1 else kwargs["z"]))

        rebind(blaschke.__name__, attr, span(f"blaschke.{attr}", observe=evaluated))


def count_map_points(tracer: Tracer, inputs: dict) -> dict:
    """Copy of inputs whose PlaneMaps count their evaluations.

    A bump is exactly zero outside its support, so the nonzero outputs are
    the points that fall inside it.
    """

    def counted(pm: PlaneMap) -> PlaneMap:
        func = pm.func

        def f(z):
            out = func(z)
            tracer.count("energy.plane_map.points", out.size)
            tracer.count("energy.plane_map.inside", np.count_nonzero(out))
            return out

        return dataclasses.replace(pm, func=f)

    return {k: counted(v) if isinstance(v, PlaneMap) else v for k, v in inputs.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (RUN_LEVEL ones excepted)."""
    s = tracer.stat
    c = lambda key: tracer.counters.get(key, 0.0)  # noqa: E731
    quad = s("quadrature.adaptive_integrate")
    integrand = s("quadrature.integrand")
    panels = c("quadrature.adaptive_integrate.panels")
    rings = s("energy._gradient_ring_density")
    pair = s("energy._pair_form")
    evals = s("blaschke.eval_product")
    derivs = s("blaschke.derivative")
    out = {
        "quadrature.adaptive_integrate.calls": quad.calls,
        "quadrature.adaptive_integrate.self_s": quad.self_s,
        "quadrature.adaptive_integrate.panels": panels,
        "quadrature.adaptive_integrate.panels_per_s": _ratio(panels, quad.self_s),
        "quadrature.adaptive_integrate.unconverged": c("quadrature.adaptive_integrate.unconverged"),
        "quadrature.integrand.batches": integrand.calls,
        "quadrature.integrand.points": c("quadrature.integrand.points"),
        "quadrature.integrand.self_s": integrand.self_s,
        "certificates._f2_block.s": s("certificates._f2_block").inclusive_s,
        "certificates._f2_profile.calls": s("certificates._f2_profile").calls,
        "certificates.F1_closed_or_quad.calls": s("certificates.F1_closed_or_quad").calls,
        "certificates.other_builders.s": (s("certificates.standard_certificates").inclusive_s
                                          - s("certificates._f2_block").inclusive_s),
        "energy.halfspace_dirichlet_oracle.s": s("energy.halfspace_dirichlet_oracle").inclusive_s,
        "energy._gradient_ring_density.calls": rings.calls,
        "energy._gradient_ring_density.s_per_ring": _ratio(rings.inclusive_s, rings.calls),
        "energy._kernel_panels.calls": s("energy._kernel_panels").calls,
        "energy._kernel_panels.s": s("energy._kernel_panels").inclusive_s,
        "energy.plane_map.points": c("energy.plane_map.points"),
        "energy.plane_map.inside_frac": _ratio(c("energy.plane_map.inside"),
                                               c("energy.plane_map.points")),
        "energy._pair_form.calls": pair.calls,
        "energy._pair_form.s_per_outer_point": _ratio(pair.inclusive_s,
                                                      c("energy._pair_form.outer_points")),
        "energy.hemisphere_tangential_energy.s": s("energy.hemisphere_tangential_energy").inclusive_s,
        "jacobian.pairing_volume.calls": s("jacobian.pairing_volume").calls,
        "jacobian.pairing_volume.s": s("jacobian.pairing_volume").inclusive_s,
        "jacobian.halfball_energy_fd.s": s("jacobian.halfball_energy_fd").inclusive_s,
        "jacobian.pairing_surface.s": s("jacobian.pairing_surface").inclusive_s,
        "jacobian.bcl_lower_bound.s": s("jacobian.bcl_lower_bound").inclusive_s,
        "competitors.kernel_tables.s": (s("competitors._zero_pull_kernel_table").inclusive_s
                                        + s("competitors._unwinding_kernel_table").inclusive_s),
        "competitors.family_energy.s": (s("competitors.zero_pull_family_energy").inclusive_s
                                        + s("competitors.unwinding_family_energy").inclusive_s),
        "competitors.optimal_profile.s": s("competitors.optimal_profile").inclusive_s,
        "competitors.profile_energy.s": s("competitors.profile_energy").inclusive_s,
        "competitors.G_of.calls": s("competitors.G_of").calls,
        "blaschke.eval_product.points": c("blaschke.eval_product.points"),
        "blaschke.eval_product.points_per_s": _ratio(c("blaschke.eval_product.points"),
                                                     evals.inclusive_s),
        "blaschke.derivative.points_per_s": _ratio(c("blaschke.derivative.points"),
                                                   derivs.inclusive_s),
    }
    return {k: float(v) for k, v in out.items()}
