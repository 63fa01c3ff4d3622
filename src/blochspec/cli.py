"""Command-line surface: band structures, butterflies, IDS curves, algebra and
oracle checks, and the band-measure sweep along rational approximants.

Every output file starts with a metadata header (schema, tool version, config
echo) and is byte-identical across re-runs of one config on any core count.
Exit codes: 0 success, 1 failed verification check, 2 invalid usage,
3 eigensolver failure (offending flux/k in the error record on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys

import numpy as np

from . import __version__ as VERSION
from . import fibering, harper, model, svgplot
from .model import EigensolverError, FourierPotential, RationalFlux, checked_int

SCHEMA = 2

DEFAULT_APPROXIMANTS = "1/2,2/3,3/5,5/8,8/13,13/21"
ORACLE_VECTORS = 100
ORACLE_CELLS = 20
# each oracle verdict allows ORACLE_ROUNDOFF * n * ||H|| of roundoff on n sites
# of an operator of norm ||H|| (an isometry has norm 1)
ORACLE_ROUNDOFF = 8 * sys.float_info.epsilon

# Largest dense matrix dimension a command may build: 2*cutoff + 1 for
# ``bands`` and every flux denominator; --sites, the length of the
# direct-space chain, stays under it too.  ``algebra-check`` shares the flux
# cap but sizes only arrays of length q.  ``butterfly`` output grows like
# max_q^3, so --max-q has its own cap.  MAX_GRID caps the sampling grids
# (--kpoints, --epoints, --kgrid), which size 1d arrays and loops.
MAX_DIM = 2048
MAX_Q = 200
MAX_GRID = 1 << 16


def parse_potential(text: str) -> FourierPotential:
    """Parse 'n:re[,im]' pairs, comma separated; ``FourierPotential`` fills in
    the missing conjugate frequencies so the potential is real."""
    coeffs = {}
    current = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty entry in potential spec {text!r}")
        if ":" in token:
            head, value = token.split(":", 1)
            try:
                n = int(head)
                re = float(value)
            except ValueError:
                raise ValueError(f"bad potential entry {token!r}") from None
            if n in coeffs:
                raise ValueError(f"duplicate frequency {n} in potential spec")
            coeffs[n] = complex(re, 0.0)
            current = n
        else:
            if current is None:
                raise ValueError(f"imaginary part {token!r} without a preceding n:re pair")
            try:
                im = float(token)
            except ValueError:
                raise ValueError(f"bad potential entry {token!r}") from None
            coeffs[current] = complex(coeffs[current].real, im)
            current = None
    return FourierPotential(coeffs)


def _fmt_cell(value) -> str:
    """One CSV cell from a builtin value (payloads and rows hold no numpy types)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return value if isinstance(value, str) else repr(value)


def _meta(ns: argparse.Namespace) -> dict:
    """Schema, tool version and config echo (in the parser's argument order), which
    head every output; the output path is omitted so identical computations
    produce identical bytes anywhere."""
    return {"schema": SCHEMA, "version": VERSION,
            "config": {k: v for k, v in vars(ns).items() if k != "output"}}


def _meta_fields(ns: argparse.Namespace) -> list:
    """The header as key=value fields for the CSV and SVG comments."""
    return [f"{k}={json.dumps(v) if k == 'config' else v}" for k, v in _meta(ns).items()]


def render_json(ns: argparse.Namespace, payload: dict) -> str:
    return json.dumps({**_meta(ns), **payload}, indent=2) + "\n"


def render_csv(ns: argparse.Namespace, header: list, rows: list) -> str:
    lines = [f"# {field}" for field in _meta_fields(ns)] + [",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _flux(text: str) -> RationalFlux:
    """Parse a reduced fraction p/q whose denominator stays within MAX_DIM."""
    flux = RationalFlux.parse(text)
    if flux.q > MAX_DIM:
        raise ValueError(f"flux denominator {flux.q} exceeds the cap of {MAX_DIM}")
    return flux


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_bands(ns: argparse.Namespace):
    potential = parse_potential(ns.potential)
    ks, energies = fibering.band_sweep(potential, ns.cutoff, ns.bands, ns.kpoints)
    bands = fibering.band_structure(potential, ns.cutoff, ns.bands)
    return {
        "k": ks.tolist(),
        "band_energies": energies.T.tolist(),  # one row per band
        "band_intervals": bands.intervals,
        "gaps": model.interior_gaps(bands),
    }


def _table_bands(payload: dict):
    ecols = [f"e{b}" for b in range(len(payload["band_energies"]))]
    rows = [["sample", i, k, *row, "", ""]
            for i, (k, row) in enumerate(zip(payload["k"], zip(*payload["band_energies"])))]
    for kind, key in (("interval", "band_intervals"), ("gap", "gaps")):
        rows.extend([kind, b, "", *[""] * len(ecols), a, bb]
                    for b, (a, bb) in enumerate(payload[key]))
    return ["kind", "i", "k", *ecols, "lo", "hi"], rows


def _cmd_butterfly(ns: argparse.Namespace):
    return {"rows": [{"p": flux.p, "q": flux.q, "flux": flux.value, "bands": bands.intervals}
                     for flux, bands in harper.butterfly(ns.max_q, ns.lam)]}


def _table_butterfly(payload: dict):
    rows = [[r["p"], r["q"], r["flux"], b, a, bb]
            for r in payload["rows"] for b, (a, bb) in enumerate(r["bands"])]
    return ["p", "q", "flux", "band", "lo", "hi"], rows


def _cmd_ids(ns: argparse.Namespace):
    params = harper.HarperParams(flux=_flux(ns.flux), lam=ns.lam)
    energies, values = harper.ids(params, kgrid=ns.kgrid, points=ns.epoints)
    return {"flux": str(params.flux), "lam": params.lam,
            "energies": energies.tolist(), "values": values.tolist()}


def _table_ids(payload: dict):
    rows = [[i, e, v] for i, (e, v) in enumerate(zip(payload["energies"], payload["values"]))]
    return ["i", "energy", "ids"], rows


def _cmd_algebra_check(ns: argparse.Namespace):
    flux = _flux(ns.flux)
    u, omega = model.clock_shift(flux)
    return {
        "p": flux.p,
        "q": flux.q,
        "omega_re": omega.real,
        "omega_im": omega.imag,
        "unitarity_residual_u": model.unitarity_residual(u),
        "unitarity_residual_v": 0.0,  # the shift permutes the basis: exactly unitary
        "cocycle_residual": model.commutation_residual(u, omega),
        "band_count_bound": flux.q,
    }


def _table_algebra_check(payload: dict):
    return ["key", "value"], [[k, v] for k, v in payload.items()]


def _random_cell(rng: random.Random, max_cells: int) -> fibering.DiscreteCell:
    """1-4 sites repeated 1..max_cells times, onsite energies in [-2, 2]."""
    q, m = rng.randint(1, 4), rng.randint(1, max_cells)
    return fibering.DiscreteCell(M=m, onsite=tuple(rng.uniform(-2, 2) for _ in range(q)))


def _oracle_unitarity(rng: random.Random) -> dict:
    """Relative norm defect of the Bloch transform, an isometry, on random vectors."""
    worst, ok = 0.0, True
    for _ in range(ORACLE_VECTORS):
        cell = _random_cell(rng, 16)
        # any nonzero vector tests an isometry: entries uniform on a square about 0
        f = (np.array([rng.random() for _ in range(2 * cell.sites)]) - 0.5).view(complex)
        blocks = fibering.discrete_bloch_transform(f, cell)
        n_in = float(np.vdot(f, f).real)
        n_out = float(np.vdot(blocks, blocks).real)
        defect = abs(n_out - n_in) / n_in
        worst, ok = max(worst, defect), ok and defect <= ORACLE_ROUNDOFF * cell.sites
    return {"vectors": ORACLE_VECTORS, "max_relative_defect": worst, "pass": ok}


def _oracle_union(rng: random.Random) -> dict:
    """Ring spectrum against the union of its fiber spectra on random cells: both
    are backward stable, so by Weyl's inequality each eigenvalue pair differs by
    roundoff in ||H|| <= max|onsite| + 2 (Gershgorin)."""
    worst, ok = 0.0, True
    for _ in range(ORACLE_CELLS):
        cell = _random_cell(rng, 12)
        direct = fibering.periodic_truncation_spectrum(cell)
        union = fibering.fiber_union_spectrum(cell)
        deviation = float(np.abs(direct - union).max())
        bound = ORACLE_ROUNDOFF * cell.sites * (max(map(abs, cell.onsite)) + 2.0)
        worst, ok = max(worst, deviation), ok and deviation <= bound
    return {"trials": ORACLE_CELLS, "max_deviation": worst, "pass": ok}


def _oracle_direct_space(params: harper.HarperParams, sites: int) -> dict:
    """Inertia counts of the open chain against the gap labels j = q * IDS.

    Below any energy in gap j a ring of q*m sites has exactly j*m eigenvalues
    (j per Bloch fiber).  The chain's first q*m sites differ from that ring by
    a rank-2 term of inertia (1, 1), and its r = sites - q*m further sites add
    at most r by Cauchy interlacing, so the chain's count N obeys
    j*m - 1 <= N <= j*m + 1 + r.  Being a compression of the infinite
    operator, the chain has no eigenvalue outside the band hull.  The count
    runs at the fixed phases 0 and pi/q, which realise the edge fibers k2 = 0
    and pi/q where every band edge lies, so bands computed too narrow fail.
    The hull and the gaps come from ``harper_spectrum``, each gap's label from
    its place among them; eta covers the roundoff of both the edges and the count.
    """
    q = params.flux.q
    m, r = divmod(sites, q)
    eta = ORACLE_ROUNDOFF * sites * (2.0 + 2.0 * params.lam)
    spectrum = harper.harper_spectrum(params)
    # gap j has j Bloch bands below it; the centre gap q/2 at even q is closed
    labelled = zip([j for j in range(1, q) if 2 * j != q], model.interior_gaps(spectrum))
    gaps = [(j, a, b) for j, (a, b) in labelled if b - a > 2 * eta]
    probes = ([(spectrum.intervals[0][0] - eta, 0)]
              + [(e, j) for j, a, b in gaps for e in (a + eta, b - eta)]
              + [(spectrum.intervals[-1][1] + eta, q)])
    energies, label = map(np.array, zip(*probes))
    lower, upper = label * m - 1, label * m + 1 + r
    lower[[0, -1]] = upper[[0, -1]] = [0, sites]
    count = harper.direct_space_count(params, sites, energies)
    excess = max(0, int(np.maximum(lower - count, count - upper).max()))
    return {
        "flux": str(params.flux),
        "sites": sites,
        "probes": int(energies.size),
        "max_count_excess": excess,
        "pass": excess == 0,
    }


def _cmd_oracle_check(ns: argparse.Namespace):
    # every echoed parameter is validated before any check runs
    params = harper.HarperParams(flux=_flux(ns.flux), lam=ns.lam)
    checked_int(ns.sites, "site count", least=params.flux.q)
    rng = random.Random(ns.seed)
    checks = {"unitarity": _oracle_unitarity(rng), "union": _oracle_union(rng),
              "direct_space": _oracle_direct_space(params, ns.sites)}
    return {"checks": checks, "pass": all(c["pass"] for c in checks.values())}


def _table_oracle_check(payload: dict):
    rows = [[name, k, v] for name, stats in payload["checks"].items() for k, v in stats.items()]
    return ["check", "key", "value"], rows + [["overall", "pass", payload["pass"]]]


def _cmd_cantor(ns: argparse.Namespace):
    fluxes = [_flux(t) for t in ns.approximants.split(",")]
    return {"rows": [{"p": f.p, "q": f.q, "flux": f.value, "measure": m}
                     for f, m in harper.cantor_proxy(fluxes, ns.lam)]}


def _table_cantor(payload: dict):
    rows = [[i, r["p"], r["q"], r["measure"]] for i, r in enumerate(payload["rows"])]
    return ["i", "p", "q", "measure"], rows


# name -> (command building the payload, table building the CSV header and rows
# from it, svgplot renderer drawing it or None): the one entry per subcommand
_COMMANDS = {
    "bands": (_cmd_bands, _table_bands, svgplot.render_bands_svg),
    "butterfly": (_cmd_butterfly, _table_butterfly, svgplot.render_butterfly_svg),
    "ids": (_cmd_ids, _table_ids, None),
    "algebra-check": (_cmd_algebra_check, _table_algebra_check, None),
    "oracle-check": (_cmd_oracle_check, _table_oracle_check, None),
    "cantor": (_cmd_cantor, _table_cantor, None),
}


def run(ns: argparse.Namespace) -> int:
    """Compute the command's payload, then write the report in one shot: the
    payload as JSON, drawn by the command's SVG renderer, or, for CSV only, as
    the header and rows that the command's table builds from it.  A payload
    whose "pass" is False exits 1."""
    command, table, svg = _COMMANDS[ns.command]
    payload = command(ns)
    if ns.fmt == "json":
        text = render_json(ns, payload)
    elif ns.fmt == "csv":
        text = render_csv(ns, *table(payload))
    else:
        text = svg(payload, " ".join(_meta_fields(ns)))
    try:  # a path, disk or pipe that cannot take the report is bad input, not a failed check
        with (open(ns.output, "w", encoding="utf-8") if ns.output is not None
              else contextlib.nullcontext(sys.stdout)) as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        if ns.output is None:  # closed, so that interpreter exit does not retry the write
            with contextlib.suppress(OSError):
                sys.stdout.close()
        raise ValueError(f"cannot write the report: {exc}") from None
    if payload.get("pass") is False:
        _emit_error("verification", "one or more oracle checks failed")
        return 1
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits; we want the JSON record
        raise ValueError(message)


def _int_in(lo: int, hi: float):
    """argparse type: an integer in [lo, hi]."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must be between {lo} and {hi}, got {n}")
        return n
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blochspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command adds its arguments in the order that the config echo in every
    # output header lists them, so reordering them changes the output bytes.

    def common(p, name):
        formats = ("csv", "json", "svg") if _COMMANDS[name][2] else ("csv", "json")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--format", dest="fmt", default="json",
                       choices=formats, help="output format")

    p = sub.add_parser("bands", help="1d periodic band structure from Fourier coefficients")
    p.add_argument("--potential", required=True,
                   help="Fourier coefficients as n:re[,im] pairs, e.g. '1:1' or '0:0.5,1:1'")
    p.add_argument("--cutoff", type=_int_in(0, (MAX_DIM - 1) // 2),
                   default=fibering.DEFAULT_CUTOFF, help="plane-wave cutoff N")
    p.add_argument("--kpoints", type=_int_in(1, MAX_GRID), default=fibering.DEFAULT_KPOINTS)
    p.add_argument("--bands", type=_int_in(1, MAX_DIM), default=fibering.DEFAULT_BANDS)
    common(p, "bands")

    p = sub.add_parser("butterfly", help="Hofstadter butterfly over all reduced fluxes")
    p.add_argument("--max-q", dest="max_q", type=_int_in(1, MAX_Q), required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    common(p, "butterfly")

    p = sub.add_parser("ids", help="integrated density of states at rational flux")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--kgrid", type=_int_in(1, MAX_GRID), default=harper.IDS_DEFAULT_NODES,
                   help="quadrature nodes for the one quasimomentum not integrated "
                        "in closed form")
    p.add_argument("--flux", required=True, help="reduced fraction p/q")
    p.add_argument("--epoints", type=_int_in(2, MAX_GRID), default=harper.IDS_DEFAULT_POINTS,
                   help="energies on the padded band hull")
    common(p, "ids")

    p = sub.add_parser("algebra-check", help="clock/shift commutation relation report")
    p.add_argument("--flux", required=True)
    common(p, "algebra-check")

    p = sub.add_parser("oracle-check", help="independent verification oracles")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--flux", default="1/3")
    p.add_argument("--sites", type=_int_in(1, MAX_DIM), default=600)
    common(p, "oracle-check")
    p.add_argument("--seed", type=_int_in(0, float("inf")), default=0,
                   help="seed for the randomized checks (unitarity, union)")

    p = sub.add_parser("cantor", help="band measure along rational approximants")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--approximants", default=DEFAULT_APPROXIMANTS,
                   help="comma-separated reduced fractions, increasing denominator")
    common(p, "cantor")

    return parser


def _emit_error(kind: str, message: str, **context):
    record = {"schema": SCHEMA, "error": kind, "message": message}
    record.update({k: v for k, v in context.items() if v is not None})
    sys.stderr.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    try:
        return run(build_parser().parse_args(argv))
    except EigensolverError as exc:
        _emit_error("numerical", str(exc),
                    flux=str(exc.flux) if exc.flux is not None else None, k=exc.k)
        return 3
    except ValueError as exc:
        _emit_error("usage", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
