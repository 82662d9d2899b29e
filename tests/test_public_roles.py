"""Every public name of halfharm declares the role it plays for a verdict.

The package's product is its verdicts: the certificate battery, the
competitor family energies, the nonlocal energy reports, the Jacobian energy
bound and the decisive margins.  A public name stays only if it has one of
three roles:

- "verdict": a step of a verdict, or a type, constant or error that a
  verdict takes, returns or raises;
- "route": an independent route to a quantity a verdict computes, kept so
  that a test can compare the two (or a closed form such a test compares
  with);
- "lemma": a check of an inequality a verdict's argument rests on.

ROLES lists them all, so a new public name has to declare its role here.  A
route or lemma that no test mentions is flagged: nothing would compare it
with anything.

The same holds for options.  A defaulted parameter of an exported callable
that no call in the package or the benchmark passes has one setting in use,
so it is a constant; UNSET_DEFAULTS lists each one that stays settable,
with the reason.  Modules, the benchmark and tests are read with ast, re
and inspect, not run.
"""

import ast
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import halfharm

ROLES = {
    # blaschke
    "blaschke.BlaschkeProduct": "verdict",
    "blaschke.CircleSample": "verdict",
    "blaschke.eval_product": "verdict",
    "blaschke.derivative": "verdict",
    "blaschke.boundary_trace": "route",
    "blaschke.winding_number": "verdict",
    "blaschke.degree_of": "route",
    "blaschke.circle_energy_analytic": "route",
    "blaschke.homogeneous_extension": "verdict",
    "blaschke.modulus_bound_margin": "lemma",
    "blaschke.balance_vector": "lemma",
    # certificates
    "certificates.CertificateReport": "verdict",
    "certificates.F_closed": "verdict",
    "certificates.I_oracle": "verdict",
    "certificates.M_closed": "verdict",
    "certificates.M_oracle": "verdict",
    "certificates.N_closed": "verdict",
    "certificates.N_oracle": "verdict",
    "certificates.A_closed": "verdict",
    "certificates.A_oracle": "verdict",
    "certificates.P_closed": "verdict",
    "certificates.V_closed": "verdict",
    "certificates.V_oracle": "verdict",
    "certificates.U_closed": "verdict",
    "certificates.U_oracle": "verdict",
    "certificates.ratint_closed": "verdict",
    "certificates.ratint_oracle": "verdict",
    "certificates.J_closed": "verdict",
    "certificates.J_oracle": "verdict",
    "certificates.delta_certificate": "verdict",
    "certificates.F1_closed_or_quad": "verdict",
    "certificates.F2_certificate": "verdict",
    "certificates.hardy_constant": "verdict",
    "certificates.sphere_destabilization_margin": "verdict",
    "certificates.standard_certificates": "verdict",
    "certificates.certificate_tables": "verdict",
    # competitors
    "competitors.Profile": "verdict",
    "competitors.UnwindingFamily": "verdict",
    "competitors.FamilyReport": "verdict",
    "competitors.G_of": "verdict",
    "competitors.optimal_profile": "verdict",
    "competitors.profile_energy": "verdict",
    "competitors.zero_pull_family_energy": "verdict",
    "competitors.unwinding_family_energy": "verdict",
    "competitors.zero_pull_profile": "verdict",
    "competitors.unwinding_profile": "verdict",
    "competitors.radial_kernel_zero_pull": "verdict",
    "competitors.radial_kernel_unwinding": "verdict",
    "competitors.zero_pull_grid_energy": "route",
    "competitors.unwinding_grid_energy": "route",
    "competitors.epsilon_sweep": "verdict",
    # conformal
    "conformal.INF": "verdict",
    "conformal.is_inf": "verdict",
    "conformal.stereo": "verdict",
    "conformal.stereo_inv": "verdict",
    "conformal.stereo_density": "verdict",
    "conformal.cayley": "route",
    "conformal.cayley_inv": "verdict",
    # energy
    "energy.gamma_n": "verdict",
    "energy.GAMMA_1": "verdict",
    "energy.GAMMA_2": "verdict",
    "energy.PlaneMap": "verdict",
    "energy.bump_map": "verdict",
    "energy.vortex_map": "verdict",
    "energy.closed_xstar_ext": "route",
    "energy.poisson_extend": "route",
    "energy.poisson_extend_gradient": "route",
    "energy.circle_energy_numeric": "verdict",
    "energy.FracEnergyReport": "verdict",
    "energy.frac_energy_plane": "verdict",
    "energy.half_laplacian_pairing": "route",
    "energy.dirichlet_energy_halfball": "route",
    "energy.hemisphere_tangential_energy": "route",
    "energy.halfspace_dirichlet_oracle": "route",
    "energy.MonotoneReport": "route",
    "energy.monotone_density": "route",
    # errors, re-exported by the package
    "errors.HalfharmError": "verdict",
    "errors.InvalidArgument": "verdict",
    "errors.DomainViolation": "verdict",
    "errors.PreconditionViolation": "verdict",
    "errors.NumericalFailure": "verdict",
    "errors.Undersampled": "verdict",
    # jacobian
    "jacobian.AtomMeasure": "verdict",
    "jacobian.BclReport": "verdict",
    "jacobian.BoundaryField": "verdict",
    "jacobian.EnergyBoundReport": "verdict",
    "jacobian.LipschitzTest": "verdict",
    "jacobian.bcl_lower_bound": "verdict",
    "jacobian.coordinate_tests": "verdict",
    "jacobian.default_test_dictionary": "verdict",
    "jacobian.distance_test": "verdict",
    "jacobian.energy_lower_bound_check": "route",
    "jacobian.halfball_energy_fd": "route",
    "jacobian.jacobian_report": "verdict",
    "jacobian.pairing_surface": "verdict",
    "jacobian.pairing_volume": "route",
    "jacobian.product_vortex_field": "verdict",
    # quadrature
    "quadrature.QuadRule": "verdict",
    "quadrature.Tolerance": "verdict",
    "quadrature.IntegrationResult": "verdict",
    "quadrature.ensure_converged": "verdict",
    "quadrature.circle_rule": "verdict",
    "quadrature.disc_rule": "verdict",
    "quadrature.hemisphere_rule": "verdict",
    "quadrature.integrate": "verdict",
    "quadrature.adaptive_integrate": "verdict",
    "quadrature.adaptive_integrate_many": "verdict",
    "quadrature.integrate_line": "verdict",
    "quadrature.integrate_halfline": "verdict",
}

# "module.name(parameter)": why a default that no call in src/halfharm or
# bench/ (bench's own tests aside) sets is still a parameter
UNSET_DEFAULTS = {
    "competitors.epsilon_sweep(delta)":
        "ROADMAP item 2's epsilon scan sets the terminal pull value",
    "competitors.epsilon_sweep(eps_values)":
        "ROADMAP item 2's epsilon scan sets the collar widths",
    "competitors.zero_pull_grid_energy(eps)":
        "the collar width of beta, a datum of the map; the grid route runs only in tests",
    "energy.dirichlet_energy_halfball(r)":
        "a route; tests check the scaling E(B_r+) = r E(B_1+) and the refused radii",
    "energy.poisson_extend(n_omega)": "a route's ray rule; tests set it to compare rules",
    "energy.poisson_extend(n_gl)": "a route's ray rule; tests set it to compare rules",
    "energy.poisson_extend_gradient(n_omega)": "a route's ray rule; tests set it to compare rules",
    "energy.poisson_extend_gradient(n_gl)": "a route's ray rule; tests set it to compare rules",
    "jacobian.energy_lower_bound_check(atoms)":
        "None is a smooth extension, with no vortex patch; tests pass such fields",
    "jacobian.halfball_energy_fd(atoms)":
        "None is a smooth extension, with no vortex patch; tests pass such fields",
    "jacobian.pairing_volume(atoms)":
        "None is a smooth extension, with no vortex patch; tests pass such fields",
}

SRC = Path(halfharm.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
MODULES = sorted(m.name for m in pkgutil.iter_modules(halfharm.__path__))


def _exported() -> set[str]:
    """module.name for every public name in a module's __all__, and for the
    package's own __all__ under the module that defines each name."""
    names = set()
    for module_name in MODULES:
        module = importlib.import_module(f"halfharm.{module_name}")
        names |= {f"{module_name}.{n}" for n in getattr(module, "__all__", ())
                  if not n.startswith("_")}
    for n in halfharm.__all__:
        if not n.startswith("_"):
            home = getattr(halfharm, n).__module__.removeprefix("halfharm.")
            names.add(f"{home}.{n}")
    return names


def test_roles_are_known():
    assert set(ROLES.values()) <= {"verdict", "route", "lemma"}


def test_every_exported_name_declares_a_role():
    exported = _exported()
    assert not exported - ROLES.keys(), f"exported without a role: {sorted(exported - ROLES.keys())}"
    assert not ROLES.keys() - exported, f"roles of names nobody exports: {sorted(ROLES.keys() - exported)}"


def test_every_public_definition_is_exported():
    exported = _exported()
    hidden = []
    for module_name in MODULES:
        tree = ast.parse((SRC / f"{module_name}.py").read_text())
        hidden += [f"{module_name}.{node.name}" for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not node.name.startswith("_")
                   and f"{module_name}.{node.name}" not in exported]
    assert not hidden, f"public definitions outside every __all__: {hidden}"


def test_every_route_and_lemma_is_compared_in_a_test():
    text = "\n".join(p.read_text() for p in sorted(TESTS.glob("*.py"))
                     if p.resolve() != Path(__file__).resolve())
    unused = [key for key, role in ROLES.items() if role in ("route", "lemma")
              and not re.search(rf"\b{re.escape(key.split('.')[1])}\b", text)]
    assert not unused, f"routes or lemmas that no test mentions: {unused}"


class _Calls(ast.NodeVisitor):
    """name -> (most positional arguments of a call, keywords passed) over
    the calls of one or more modules.  A *args counts as every position, a
    **mapping as the keyword None, and a call of `cls` in a class body as a
    call of that class."""

    def __init__(self) -> None:
        self.passed: dict[str, tuple[float, set]] = {}
        self.classes: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        if name:
            n_pos, keywords = self.passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            self.passed[name] = (max(n_pos, math.inf if starred else len(node.args)),
                                 keywords | {k.arg for k in node.keywords})
        self.generic_visit(node)


def _unset_defaults() -> set[str]:
    """module.name(parameter) for every defaulted parameter of an exported
    callable that no call in src/halfharm or bench/ passes."""
    calls = _Calls()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        if path.name != "test_bench.py":
            calls.visit(ast.parse(path.read_text()))
    unset = set()
    for key in _exported():
        module_name, name = key.split(".")
        obj = getattr(importlib.import_module(f"halfharm.{module_name}"), name)
        # errors take only the message, and builtin types give no signature
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        n_pos, keywords = calls.passed.get(name, (0, set()))
        for i, p in enumerate(inspect.signature(obj).parameters.values()):
            if p.default is p.empty or None in keywords or p.name in keywords:
                continue
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) and i < n_pos:
                continue
            unset.add(f"{key}({p.name})")
    return unset


def test_every_default_is_set_by_a_call_or_says_why_not():
    unset = _unset_defaults()
    assert not unset - UNSET_DEFAULTS.keys(), \
        f"defaults that no call sets (make them constants): {sorted(unset - UNSET_DEFAULTS.keys())}"
    assert not UNSET_DEFAULTS.keys() - unset, \
        f"UNSET_DEFAULTS entries that a call sets or that are gone: {sorted(UNSET_DEFAULTS.keys() - unset)}"
