"""Command-line harness: algebra spec files, catalog invocation, verification
campaigns, family printing, transfer, reduction, and report emission.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 precondition
violation, 4 resource refusal, 5 internal error.  A closed stdout reader does
not change them: the command drops the rest of its output and exits with its
own status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

from .algebras import (
    GradedAlgebra,
    build_catalog,
    catalog_ids,
    center,
    check_graded_division,
    coarsen_by_quotient,
    detect_regular,
    invert,
    tensor,
)
from .errors import (
    PreconditionError,
    ResourceRefusal,
    SpecParseError,
    VerificationFailure,
)
from .freealg import FreePoly, parse_poly
from .groups import FiniteAbelianGroup, quotient_by
from .pitool import (
    GeneratorSet,
    bp_basis,
    check_pauli_multidegree,
    s4_hall_basis,
    dv_basis,
    family_pauli,
    family_regular,
    lift_basis,
    long_running_degrees,
    okhitin_basis,
    pauli_reduce,
    records_tsv,
    replay_certificate,
    transfer_basis,
    verify_basis,
)
from .scalars import parse_cyclo

ALGEBRA_FORMAT = "gradedpi-algebra"
GENSET_FORMAT = "gradedpi-genset"
FORMAT_VERSION = 1

GLOBAL_ASSUMPTIONS = [
    "graded tensor products are the plain tensor product with the "
    "product-group grading",
]


# -- algebra spec files ---------------------------------------------------------------


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecParseError(str(exc.msg), line=exc.lineno, column=exc.colno)
    except OSError as exc:
        raise SpecParseError("cannot read %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise SpecParseError("%s: the top level is not a JSON object" % path)
    return doc


def _load_spec(path, fmt) -> dict:
    doc = _load_json(path)
    if doc.get("format") != fmt:
        raise SpecParseError("not a %s file" % fmt)
    if doc.get("version") != FORMAT_VERSION:
        raise SpecParseError("unsupported version %r" % doc.get("version"))
    return doc


@contextmanager
def _spec_content(path):
    """Report spec content of the wrong shape (a missing key, an unknown
    label, a list where a map belongs, a short entry) as a parse error."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecParseError("malformed %s (%s: %s)" % (
            path, type(exc).__name__, exc)) from None


def _parse_group(doc):
    orders = doc.get("orders")
    if not isinstance(orders, list) or not all(isinstance(o, int) for o in orders):
        raise SpecParseError("group.orders must be a list of integers")
    names = doc.get("generators")
    return FiniteAbelianGroup(tuple(orders), tuple(names) if names else None)


def load_algebra_spec(path) -> GradedAlgebra:
    """Load an algebra from a spec file: either a catalog entry with
    parameters or an explicit basis with degrees and multiplication table,
    and in either case the file's named generator sets."""
    doc = _load_spec(path, ALGEBRA_FORMAT)
    with _spec_content(path):
        if "catalog" in doc:
            entry = doc["catalog"]
            algebra = build_catalog(entry["id"], **entry.get("params", {}))
        else:
            algebra = _explicit_algebra(doc, path)
        sets = {}
        for entry in doc.get("generator_sets", []):
            gname = entry.get("name")
            if not gname:
                raise SpecParseError("generator_sets entries need a name")
            sets[gname] = _genset_from_doc(entry, gname, algebra)
        algebra.file_gensets = sets
        return algebra


def _cyclotomic_order(doc, default):
    """The cyclotomic order a spec document declares, a positive integer."""
    order = doc.get("cyclotomic_order", default)
    if type(order) is not int or order < 1:
        raise SpecParseError("cyclotomic_order must be a positive integer, got %r"
                             % (order,))
    return order


def _explicit_algebra(doc, path) -> GradedAlgebra:
    """The algebra of a spec file's explicit basis, degrees and table."""
    order = _cyclotomic_order(doc, 1)
    group = _parse_group(doc.get("group", {}))
    basis = doc.get("basis")
    if basis is None:
        raise SpecParseError("spec file needs either 'catalog' or 'basis'")
    labels = basis["labels"]
    index = {lab: k for k, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise SpecParseError("duplicate basis labels")
    try:
        degrees = [group.word_to_element(basis["degrees"][lab]) for lab in labels]
    except (KeyError, ValueError) as exc:
        raise SpecParseError("bad degree map: %s" % exc)
    mult = {}
    for key, row in basis.get("mult", {}).items():
        i, j = _product_key(key, index)
        entry = {}
        for lab, lit in row:
            entry[index[lab]] = parse_cyclo(lit, order)
        mult[(i, j)] = entry
    unit = {}
    for lab, lit in basis.get("unit", []):
        unit[index[lab]] = parse_cyclo(lit, order)
    try:
        return GradedAlgebra(group, order, labels, degrees, mult, unit,
                             name=doc.get("name", os.path.basename(path)))
    except ValueError as exc:
        raise SpecParseError("algebra fails construction invariants: %s" % exc)


def _product_key(key, index):
    """The basis indices (i, j) of a product key "a*b".  Labels may contain
    "*" themselves (the i*u[g] of a twisted group algebra), so the key is
    read at the one "*" that splits it into two known labels."""
    pairs = []
    for cut, ch in enumerate(key):
        if ch == "*":
            la, lb = key[:cut].strip(), key[cut + 1:].strip()
            if la in index and lb in index:
                pairs.append((index[la], index[lb]))
    if len(pairs) > 1:
        raise SpecParseError("ambiguous product key %r" % key)
    if not pairs:
        raise SpecParseError("bad product key %r" % key)
    return pairs[0]


def algebra_spec_dict(algebra: GradedAlgebra) -> dict:
    """Serialize an algebra so that loading reproduces it exactly."""
    mult = {}
    for (i, j), row in sorted(algebra.mult.items()):
        key = "%s*%s" % (algebra.labels[i], algebra.labels[j])
        mult[key] = [[algebra.labels[k], str(c)] for k, c in sorted(row.items())]
    return {
        "format": ALGEBRA_FORMAT,
        "version": FORMAT_VERSION,
        "name": algebra.name,
        "cyclotomic_order": algebra.order,
        "group": {"orders": list(algebra.group.orders),
                  "generators": list(algebra.group.gen_names)},
        "basis": {
            "labels": list(algebra.labels),
            "degrees": {lab: algebra.group.element_to_word(d)
                        for lab, d in zip(algebra.labels, algebra.degrees)},
            "mult": mult,
            "unit": [[algebra.labels[k], str(c)]
                     for k, c in sorted(algebra.unit.items())],
        },
    }


def _genset_from_doc(doc, name, algebra: GradedAlgebra) -> GeneratorSet:
    """The generator set of a generator-set document, a file of its own or an
    entry of an algebra file: its parts s1, s2 and extras are polynomial
    literals over the declared cyclotomic order (the algebra's by default)."""
    order = _cyclotomic_order(doc, algebra.order)
    parts = {key: [parse_poly(t, algebra.group, order) for t in doc.get(key, [])]
             for key in ("s1", "s2", "extras")}
    return GeneratorSet(name, doc.get("mode", "identities"), algebra.group, order,
                        assumptions=doc.get("assumptions", []), **parts)


def load_genset_spec(path, algebra: GradedAlgebra) -> GeneratorSet:
    doc = _load_spec(path, GENSET_FORMAT)
    with _spec_content(path):
        return _genset_from_doc(doc, doc.get("name", os.path.basename(path)), algebra)


def genset_spec_dict(genset: GeneratorSet) -> dict:
    return {
        "format": GENSET_FORMAT,
        "version": FORMAT_VERSION,
        "name": genset.name,
        "mode": genset.mode,
        "cyclotomic_order": genset.order,
        "group": {"orders": list(genset.group.orders),
                  "generators": list(genset.group.gen_names)},
        "s1": [str(f) for f in genset.s1],
        "s2": [str(f) for f in genset.s2],
        "extras": [str(f) for f in genset.extras],
        "assumptions": list(genset.assumptions),
    }


def _write_atomic(path, text):
    """Write through a temporary file renamed over path, with the mode open()
    would give (0o666 less the umask), not mkstemp's 0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gradedpi-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_stdout(text):
    """Write text and a newline to stdout.  A reader that has gone away (a
    closed pipe, as under `| head`) is not the command's failure: stdout is
    pointed at devnull, so neither a later write nor the flush at exit raises,
    and the command goes on to end with its own status."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(args, text):
    """Write text and a newline to the --out file, atomically, or to stdout."""
    if args.out:
        _write_atomic(args.out, text + "\n")
    else:
        _write_stdout(text)


# -- algebra and basis resolution -------------------------------------------------------


def resolve_algebra(args) -> GradedAlgebra:
    spec = args.algebra
    if spec is None:
        raise PreconditionError("--algebra is required")
    if os.path.exists(spec) and spec.endswith(".json"):
        return load_algebra_spec(spec)
    params = {}
    for key in ("n", "m", "k", "l", "eps", "mu", "nu"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return build_catalog(spec, **params)


def _auto_lift_degree(algebra):
    """A degree carrying an invertible central element whose quotient is a
    two-element group (the corollary shape); the identity degree is the
    trivial-quotient fallback.  The elements tried are those of
    center(algebra), which are homogeneous, as invert requires."""
    candidates = sorted(center(algebra),
                        key=lambda h: (h.degree == algebra.group.identity, h.degree))
    for h in candidates:
        if invert(algebra, h.coords) is None:
            continue
        quotient, _ = quotient_by(algebra.group, h.degree)
        if quotient.orders == (2,):
            return h.degree
    raise PreconditionError(
        "no invertible central homogeneous element with a two-element quotient")


def resolve_basis(name, algebra, mode, max_degree) -> GeneratorSet:
    file_sets = getattr(algebra, "file_gensets", {})
    if name in file_sets:
        return file_sets[name]
    if os.path.exists(name) and name.endswith(".json"):
        return load_genset_spec(name, algebra)
    if name in ("dv-lemma", "bp-centrals"):
        if tuple(algebra.group.orders) != (2,):
            raise PreconditionError("%s needs a two-element grading group" % name)
        return dv_basis(algebra.group) if name == "dv-lemma" else bp_basis(algebra.group)
    if name in ("s4-hall", "okhitin"):
        if algebra.group.orders:
            raise PreconditionError("%s needs the trivial grading group, not %r"
                                    % (name, algebra.group))
        return s4_hall_basis() if name == "s4-hall" else okhitin_basis()
    if name == "regular":
        beta, witness = detect_regular(algebra)
        if beta is None:
            raise PreconditionError("the grading is not regular: %r" % witness)
        return family_regular(beta, mode)
    if name == "pauli":
        return family_pauli(algebra, max_degree)
    if name == "corollary":
        g = _auto_lift_degree(algebra)
        quotient_alg = coarsen_by_quotient(algebra, g)
        base = dv_basis(quotient_alg.group) if mode == "identities" \
            else bp_basis(quotient_alg.group)
        return lift_basis(algebra, g, base,
                          name="corollary-%s(%s)" % (mode, algebra.name))
    raise PreconditionError(
        "unknown basis %r (named: dv-lemma, bp-centrals, s4-hall, okhitin, "
        "regular, pauli, corollary, or a .json generator-set file)" % name)


# -- commands -------------------------------------------------------------------------------


def cmd_build(args):
    algebra = resolve_algebra(args)
    info = {
        "name": algebra.name,
        "dimension": algebra.dim,
        "group_orders": list(algebra.group.orders),
        "support_size": len(algebra.support),
        "cyclotomic_order": algebra.order,
    }
    ok, cert = check_graded_division(algebra)
    info["graded_division"] = ok
    if ok:
        info["identity_component"] = cert["e_class"]
    beta, witness = detect_regular(algebra)
    info["regular"] = beta is not None
    if beta is None and witness is not None:
        info["regularity_witness"] = witness.reason
    if args.out:
        _write_atomic(args.out, json.dumps(algebra_spec_dict(algebra), indent=2) + "\n")
        print("wrote %s" % args.out, file=sys.stderr)
    _write_stdout(json.dumps(info, indent=2))
    return 0


def cmd_verify(args):
    algebra = resolve_algebra(args)
    genset = resolve_basis(args.basis, algebra, args.mode, args.max_degree)
    if genset.mode != args.mode:
        raise PreconditionError(
            "basis %s has mode %s, requested %s" % (genset.name, genset.mode, args.mode))
    long_degrees = long_running_degrees(genset) if args.long_running else None
    report = verify_basis(algebra, genset, args.max_degree, jobs=args.jobs)
    report.assumptions.extend(GLOBAL_ASSUMPTIONS)
    if long_degrees is not None:
        t0 = time.time()
        report.records.append(check_pauli_multidegree(algebra, long_degrees))
        report.elapsed += time.time() - t0
    text = report.to_json() if args.format == "json" else report.to_tsv()
    _emit(args, text)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def cmd_families(args):
    algebra = resolve_algebra(args)
    genset = resolve_basis(args.basis, algebra, args.mode, args.max_degree)
    if args.format == "json":
        text = json.dumps(genset_spec_dict(genset), indent=2)
    else:
        lines = ["# %s (%s)" % (genset.name, genset.mode)]
        for f in genset.s1:
            lines.append("s1\t%s" % f)
        for f in genset.s2:
            lines.append("s2\t%s" % f)
        for f in genset.extras:
            lines.append("extra\t%s" % f)
        text = "\n".join(lines)
    _emit(args, text)
    return 0


def cmd_transfer(args):
    algebra = resolve_algebra(args)
    if not args.with_algebra:
        raise PreconditionError("--with <catalog-id> is required for transfer")
    factor = build_catalog(args.with_algebra)
    genset = resolve_basis(args.basis, algebra, args.mode, args.max_degree)
    transferred = transfer_basis(genset, factor)
    if args.verify:
        product = tensor(algebra, factor)
        report = verify_basis(product, transferred, args.max_degree, jobs=args.jobs)
        report.assumptions.extend(GLOBAL_ASSUMPTIONS)
        text = report.to_json() if args.format == "json" else report.to_tsv()
        _emit(args, text)
        print(report.summary(), file=sys.stderr)
        return 0 if report.ok else 1
    text = json.dumps(genset_spec_dict(transferred), indent=2)
    _emit(args, text)
    return 0


def cmd_reduce(args):
    algebra = resolve_algebra(args)
    if not args.poly:
        raise PreconditionError("--poly <literal> is required for reduce")
    poly = parse_poly(args.poly, algebra.group, algebra.order)
    reduced, certificate = pauli_reduce(algebra, poly)
    replay_certificate(FreePoly(algebra.group, reduced.order, poly.terms),
                       reduced, certificate)
    out = {
        "input": str(poly),
        "reduced": str(reduced),
        "rounds": len(certificate),
        "steps": sum(len(r["monomials"]) for r in certificate),
        "certificate_replayed": True,
    }
    text = json.dumps(out, indent=2)
    _emit(args, text)
    return 0


def cmd_report(args):
    if not args.input:
        raise PreconditionError("report needs an input JSON report file")
    doc = _load_json(args.input)
    if doc.get("format") != "gradedpi-report":
        raise SpecParseError("not a gradedpi-report file")
    with _spec_content(args.input):
        text = records_tsv(doc.get("records", []))
    _emit(args, text)
    return 0


def make_parser():
    parser = argparse.ArgumentParser(
        prog="gradedpi",
        description="Exact verification of graded polynomial identity bases "
                    "for real graded division algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def algebra_options(p):
        p.add_argument("--algebra", help="catalog id (%s; tensor with '@'), or "
                                         "a .json algebra spec file" % ", ".join(catalog_ids()))
        p.add_argument("--n", type=int, help="catalog parameter n")
        p.add_argument("--m", type=int, help="catalog parameter m")
        p.add_argument("--k", type=int, help="catalog parameter k")
        p.add_argument("--l", type=int, help="catalog parameter l")
        p.add_argument("--eps", type=int, help="catalog parameter eps (+1/-1)")
        p.add_argument("--mu", type=int, help="catalog parameter mu (+1/-1)")
        p.add_argument("--nu", type=int, help="catalog parameter nu (+1/-1)")

    def output_options(p, formats=False):
        p.add_argument("--out", help="output path (written atomically)")
        if formats:
            p.add_argument("--format", choices=("json", "tsv"), default="json")

    def basis_options(p):
        p.add_argument("--basis", required=True,
                       help="named basis or a .json generator-set file")
        p.add_argument("--mode", choices=("identities", "centrals"), default="identities")
        p.add_argument("--max-degree", type=int, default=3)

    p = sub.add_parser("build", help="construct and validate an algebra")
    algebra_options(p)
    output_options(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="membership and completeness of a basis")
    algebra_options(p)
    output_options(p, formats=True)
    basis_options(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--long-running", action="store_true",
                   help="add the degree-seven record of the pauli family, for "
                        "gradings with three commutation partners of value i")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("families", help="print a generator family")
    algebra_options(p)
    output_options(p, formats=True)
    basis_options(p)
    p.set_defaults(func=cmd_families)

    p = sub.add_parser("transfer", help="transport a basis along a regular tensor factor")
    algebra_options(p)
    output_options(p, formats=True)
    basis_options(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--with", dest="with_algebra", help="catalog id of the regular factor")
    p.add_argument("--verify", action="store_true",
                   help="also verify the transferred basis on the tensor product")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("reduce", help="merge repeated degrees with a replayable certificate")
    algebra_options(p)
    output_options(p)
    p.add_argument("--poly", help="polynomial literal to reduce")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("report", help="re-render a JSON report as TSV")
    output_options(p)
    p.add_argument("--input", help="JSON report file")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except ResourceRefusal as exc:
        print("resource refusal: %s" % exc, file=sys.stderr)
        return 4
    except VerificationFailure as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
