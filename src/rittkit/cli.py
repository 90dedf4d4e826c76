"""Command line front end.

Each subcommand prints a deterministic key-value document and exits with
0 (computed, including negative answers), 2 (input or parse problem),
3 (a resource cap fired), 4 (the answer needs a field extension), or 1
(`error: internal`: any other exception, a fault of the library).
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, conjugacy, decompose, dml, msclass, semiconj, symmetry
from .errors import (CollapsedImageError, FieldExtensionRequiredError,
                     ParseError, ResourceCapError, RittKitError)
from .field import scalar_str
from .parser import parse_curve, parse_field, parse_poly

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_EXTENSION = 4


class Doc:
    """Ordered key-value document with two-space nesting: None prints as
    `absent`, a bool as `true`/`false`, any other value as its str."""

    def __init__(self):
        self.lines = []

    def add(self, key, value, indent=0):
        if value is None:
            value = "absent"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        self.lines.append(f"{'  ' * indent}{key}: {value}")

    def item(self, value, indent=1):
        self.lines.append(f"{'  ' * indent}- {value}")

    def items(self, key, values, head=None):
        """key: head (by default the count of values), then each value."""
        values = list(values)
        self.add(key, len(values) if head is None else head)
        for v in values:
            self.item(v)

    def fields(self, record, names=None):
        """A line per field of record: those in names, or all, in order."""
        for name in names or record._fields:
            self.add(name, getattr(record, name))

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _joined(indices) -> str:
    return ",".join(map(str, indices)) or "empty"


def _scalar(text: str, field) -> object:
    p = parse_poly(text, field)
    if p.degree > 0:
        raise ParseError("expected a constant scalar")
    return p.constant_term()


def _alpha(text: str, field) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("alpha must be two comma-separated scalars")
    return (_scalar(parts[0], field), _scalar(parts[1], field))


def _polys(texts: list, field) -> list:
    return [parse_poly(t, field) for t in texts]


def _indices(text: str, field) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad index list {text!r}") from exc


# -- subcommand handlers ----------------------------------------------------
# `run_command` has parsed every flag a handler reads (see `_commands`).

def _cmd_classify(args, field, doc):
    rep = conjugacy.classify(args.f)
    doc.fields(rep, ("is_cyclic", "is_dihedral", "conj_to_power"))
    cheb = rep.conj_to_pm_chebyshev
    doc.add("conj_to_pm_chebyshev", None if cheb is None else
            f"sign {scalar_str(cheb[0])}, witness {cheb[1]}")
    doc.add("disintegrated", rep.disintegrated)
    for h in rep.hints:
        doc.item(h)


def _cmd_decompose(args, field, doc):
    chains = decompose.complete_decompositions(args.f, args.degree_cap)
    doc.items("chains", (" o ".join(f"({p})" for p in ch.factors)
                         for ch in chains))


def _cmd_engstrom(args, field, doc):
    a, b, c, d = args.a, args.b, args.c, args.d
    cert = decompose.engstrom_refine(a, b, c, d)
    doc.fields(cert)
    doc.add("verified", cert.verify(a, b, c, d))


def _cmd_gamma(args, field, doc):
    grp = symmetry.gamma_group(args.f)
    doc.add("kind", grp.kind)
    if grp.kind == "Finite":
        doc.add("order", grp.order())
        doc.items("elements", (f"{ell} (companion {L})" for ell, L in
                               zip(grp.elements, grp.companions)), head="")
        doc.add("generator", grp.generator)
        doc.add("extension_hint",
                "none" if grp.extension_hint is None else grp.extension_hint)


def _cmd_m_infinity(args, field, doc):
    grp = symmetry.m_infinity(args.f, args.iter_bound)
    doc.add("order", grp.order())
    doc.items("elements", grp.elements, head="")
    doc.add("generator", grp.generator)
    doc.add("stable_at", "none" if grp.stable_at is None else grp.stable_at)


def _cmd_semiconj_check(args, field, doc):
    w = semiconj.SemiconjWitness(args.f, args.p, args.eta)
    doc.add("holds", semiconj.semiconj_check(w))


def _cmd_solve_eta(args, field, doc):
    doc.add("eta", semiconj.solve_eta(args.f, args.p))


def _cmd_solve_p(args, field, doc):
    doc.items("solutions", semiconj.solve_p(args.f, args.eta, args.deg_bound))


def _cmd_inou(args, field, doc):
    w = semiconj.SemiconjWitness(args.f, args.p, args.eta)
    nf = semiconj.inou_normal_form(w)
    doc.fields(nf, ("ell1", "ell2", "b", "c", "P", "congruence_flag"))
    for k in sorted(nf.detail):
        doc.add(k, nf.detail[k], indent=1)
    doc.add("verified", nf.verify(w))


def _cmd_common_semiconj(args, field, doc):
    f, g = args.f, args.g
    w = semiconj.common_semiconjugate(f, g, args.nmax, args.deg_cap)
    if w is None:
        doc.add("witness", "absent at caps")
        return
    doc.fields(w)
    doc.add("verified", w.verify(f, g))


def _cmd_approx_classes(args, field, doc):
    res = semiconj.approx_classes(args.f, args.nmax, args.deg_cap)
    doc.items("classes", map(_joined, res.classes))
    for root in sorted(res.representatives):
        theta, N, ps = res.representatives[root]
        doc.add(f"class_{root}_theta", theta)
        doc.add(f"class_{root}_N", N)
        for i in sorted(ps):
            doc.add(f"class_{root}_p_{i}", ps[i], indent=1)


def _cmd_curve_image(args, field, doc):
    doc.add("image", msclass.curve_image(args.curve, args.f, args.g))


def _cmd_curve_period(args, field, doc):
    f, g = args.f, args.g
    cert = msclass.curve_period(args.curve, f, g, args.nmax, args.degree_cap)
    if cert is None:
        doc.add("period", f"not periodic within {args.nmax}")
        return
    doc.add("period", cert.period)
    doc.items("image_chain", cert.image_chain, head="")
    doc.add("verified", cert.verify(f, g))


def _cmd_ms_diagonal(args, field, doc):
    out = msclass.ms_diagonal_curves(args.f, args.deg_cap, args.iter_bound)
    doc.items("curves", (f"{dc.curve} (g = {dc.g}, period "
                         f"{dc.certificate.period})" for dc in out))


def _cmd_bound(args, field, doc):
    bound = bounds.bound_c if args.command == "bound-c" else bounds.bound_c1
    trace = []
    val = bound(args.d, args.n, trace)
    doc.add("value", val)
    doc.add("exact", val.is_exact())
    doc.items("trace", (f"{label} = {value}" for label, value in trace),
              head="")


def _cmd_orbit(args, field, doc):
    orb = dml.orbit(args.f1, args.f2, args.alpha, args.n, args.height_cap)
    doc.items("points", (f"{p.index}: ({scalar_str(p.point[0])}, "
                         f"{scalar_str(p.point[1])})" for p in orb.points))
    doc.add("truncated_at",
            "none" if orb.truncated_at is None else orb.truncated_at)


def _cmd_return_set(args, field, doc):
    rs = dml.return_set_exact(args.f1, args.f2, args.alpha, args.curve,
                              args.n, args.height_cap)
    doc.add("indices", _joined(rs.indices))
    doc.add("truncated_at",
            "none" if rs.truncated_at is None else rs.truncated_at)


def _cmd_return_set_modp(args, field, doc):
    if not args.primes:
        raise ParseError("need at least one prime")
    inter = None
    for p, hits in dml.return_sets_modp(args.f1, args.f2, args.alpha,
                                        args.curve, args.primes,
                                        args.n).items():
        doc.add(f"mod_{p}", _joined(hits))
        inter = set(hits) if inter is None else inter & set(hits)
    doc.add("intersection", _joined(sorted(inter)))


def _cmd_progressions(args, field, doc):
    progs = dml.progression_decompose(set(args.set), args.horizon)
    if progs is None:
        doc.add("progressions", "absent (no eventually periodic fit)")
        return
    doc.items("progressions", (f"{{{q.a} + {q.b}k}}" for q in progs))


def _cmd_preperiodic(args, field, doc):
    f = args.f
    res = dml.preperiodic_check(f, args.a, args.n, args.height_cap)
    doc.add("kind", res.kind)
    if res.kind == "Preperiodic":
        doc.fields(res, ("tail", "period"))
    elif res.kind == "Escape":
        cert = res.certificate
        doc.fields(cert)
        doc.add("verified", cert.verify(f))


# -- argument plumbing ------------------------------------------------------

def _commands() -> dict:
    """Command name -> (handler, flags beyond `--field`), in help order.

    A flag spec is the keywords of `add_argument`, plus `parse` for a flag
    read in the field: `run_command` replaces its text by
    `parse(text, field)`, flag by flag in this order, before the handler
    runs.  Built per call, so a handler or parser rebound at run time is
    the one run; the `bound-c` commands (flags None) take d and n as
    positionals instead.
    """
    table = {}

    def cmd(name, handler, **flags):
        table[name] = (handler, flags)

    poly = {"required": True, "parse": parse_poly}
    curve = {"required": True, "parse": parse_curve}
    cmd("classify", _cmd_classify, f=poly)
    cmd("decompose", _cmd_decompose, f=poly,
        degree_cap={"type": int, "default": decompose.DECOMP_DEGREE_CAP})
    cmd("engstrom", _cmd_engstrom, a=poly, b=poly, c=poly, d=poly)
    cmd("gamma", _cmd_gamma, f=poly)
    cmd("m-infinity", _cmd_m_infinity, f=poly,
        iter_bound={"type": int, "default": None})
    cmd("semiconj-check", _cmd_semiconj_check, f=poly, p=poly, eta=poly)
    cmd("solve-eta", _cmd_solve_eta, f=poly, p=poly)
    cmd("solve-p", _cmd_solve_p, f=poly, eta=poly,
        deg_bound={"type": int, "default": 8})
    cmd("inou", _cmd_inou, f=poly, p=poly, eta=poly)
    cmd("common-semiconj", _cmd_common_semiconj, f=poly, g=poly,
        nmax={"type": int, "default": semiconj.DEFAULT_N_MAX},
        deg_cap={"type": int, "default": semiconj.DEFAULT_DEG_CAP})
    cmd("approx-classes", _cmd_approx_classes,
        f={"action": "append", "required": True, "parse": _polys},
        nmax={"type": int, "default": semiconj.DEFAULT_N_MAX},
        deg_cap={"type": int, "default": semiconj.DEFAULT_DEG_CAP})
    cmd("curve-image", _cmd_curve_image, curve=curve, f=poly, g=poly)
    cmd("curve-period", _cmd_curve_period, curve=curve, f=poly, g=poly,
        nmax={"type": int, "default": 4},
        degree_cap={"type": int, "default": msclass.IMAGE_DEGREE_CAP})
    cmd("ms-diagonal", _cmd_ms_diagonal, f=poly,
        deg_cap={"type": int, "default": 3},
        iter_bound={"type": int, "default": None})
    table["bound-c1"] = (_cmd_bound, None)
    table["bound-c"] = (_cmd_bound, None)
    alpha = {"required": True, "parse": _alpha}
    indices = {"required": True, "parse": _indices}
    orbit_flags = dict(f1=poly, f2=poly, alpha=alpha,
                       n={"type": int, "default": 10},
                       height_cap={"type": int,
                                   "default": dml.DEFAULT_HEIGHT_CAP})
    cmd("orbit", _cmd_orbit, **orbit_flags)
    cmd("return-set", _cmd_return_set, curve=curve, **orbit_flags)
    cmd("return-set-modp", _cmd_return_set_modp, curve=curve, f1=poly,
        f2=poly, alpha=alpha, primes=indices, n={"type": int, "default": 10})
    cmd("progressions", _cmd_progressions, set=indices,
        horizon={"type": int, "required": True})
    cmd("preperiodic", _cmd_preperiodic, f=poly,
        a={"required": True, "parse": _scalar},
        n={"type": int, "default": 64},
        height_cap={"type": int, "default": dml.DEFAULT_HEIGHT_CAP})
    return table


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for `argv`: when argv[0] names a command, only that
    command's subparser is built; otherwise (help, a typo, nothing) all of
    them, so usage text, errors and exit codes match the full parser."""
    commands = _commands()
    names = [argv[0]] if argv and argv[0] in commands else list(commands)
    ap = argparse.ArgumentParser(
        prog="ritt-kit",
        description="Exact polynomial decomposition, symmetry, "
                    "semiconjugacy, and invariant-curve toolkit.")
    # The usage line (printed with an unrecognized argument) lists every
    # command even when one subparser is built.
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(commands) if len(names) == 1 else None)
    for name in names:
        handler, flags = commands[name]
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, parsers=[
            (flag, spec["parse"]) for flag, spec in (flags or {}).items()
            if "parse" in spec])
        if flags is None:
            p.add_argument("--field", default="Q")
            p.add_argument("d", type=int)
            p.add_argument("n", type=int)
            continue
        p.add_argument("--field", default="Q",
                       help="coefficient field: Q or Q(zeta N)")
        for flag, spec in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}",
                           **{k: v for k, v in spec.items() if k != "parse"})
    return ap


# (error class, key, value, exit code, attribute printed when not None):
# an exception ends in the first row whose class it is an instance of.
OUTCOMES = (
    (ParseError, "error", "parse", EXIT_INPUT, "position"),
    (ResourceCapError, "error", "resource-cap", EXIT_RESOURCE, None),
    (FieldExtensionRequiredError, "error", "field-extension-required",
     EXIT_EXTENSION, "equation"),
    (CollapsedImageError, "result", "collapsed", EXIT_OK, None),
    ((RittKitError, ValueError), "error", "input", EXIT_INPUT, None),
    (Exception, "error", "internal", EXIT_INTERNAL, None),
)


def run_command(argv) -> int:
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code else EXIT_OK
    doc = Doc()
    doc.add("command", args.command)
    code = EXIT_OK
    try:
        field = parse_field(args.field)
        for flag, parse in args.parsers:
            setattr(args, flag, parse(getattr(args, flag), field))
        args.handler(args, field, doc)
    except Exception as exc:
        _, key, value, code, attr = next(
            row for row in OUTCOMES if isinstance(exc, row[0]))
        doc.add(key, value)
        doc.add("message", exc)
        if attr and getattr(exc, attr) is not None:
            doc.add(attr, getattr(exc, attr))
    sys.stdout.write(doc.render())
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
