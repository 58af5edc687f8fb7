"""Command-line interface for the separability toolkit.

Every command is a pure function of its flags: outputs carry no timestamps,
floats are printed with 17 significant digits, and grid commands run in one
process, so the ``--jobs`` flag they accept changes no byte. Scalar commands
emit a JSON record tagged with the format version, or with ``--format csv``
one CSV row (not ``qinflex``, whose bracket fields are lists); grid and
figure commands emit plain CSV (comma separated, single header row, LF line
endings). One rule gives every value its text (``_csv_field``; JSON spells
None and booleans as null, true and false and quotes the non-finite floats),
and each grid or figure driver writes its rows per column, one f-string per
row, its columns' types being known. Grid rows are written one x plane at a
time as they are computed.

Exit codes: 0 success, 1 output I/O error, 2 usage error, 3 domain error
(unphysical state or invalid weights), 4 numerical failure (a search with
no bracket; the only matrices a command solves are 2x2 blocks, which the
eigensolver diagonalises in closed form, so none can break it down).
``--out`` is written only on success: the output goes to a temporary file
beside the target, which replaces the target at the end and is removed when
the run fails or gets SIGTERM (exit 143) or SIGHUP (exit 129); a signal the
run was started ignoring, as ``nohup`` ignores SIGHUP, stays ignored. SIGKILL cannot be caught, so a run killed by it
leaves the temporary file ``.<name>.<pid>.tmp`` behind.

Neither importing this module nor running any command loads numpy:
``--method ppt`` diagonalises its matrices as nested lists.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import signal
import stat
import sys
from collections.abc import Iterable

from .criticality import Q_MAX_DEFAULT, inflexion_report, order_parameter
from .entropy import bell_log_pairs, conditional_entropy_bell, entropy_kernel, tsallis_entropy
from .errors import NumericalError
from .linalg import Spectrum
from .separability import (
    CLASSIFIERS,
    NAMED_DIRECTIONS,
    THRESHOLD_TOL_DEFAULT,
    boundary_tol_for,
    by_weight_multiset,
    classify_state,
    grid_axes,
    grid_results,
    max_weight_verdict,
    threshold_x,
)
from .states import BellDiagonalState, bell_spectrum, checked_weights, xyz_weights

FORMAT_VERSION = "qsep/1"
_G17 = ".17g"  # the format spec of every number the commands print

_FIG1_Q_SET = (0.5, 2.0, 5.0)
_FIG1_DIRECTIONS = (
    ("x00", lambda v: xyz_weights(v, 0.0, 0.0)),
    ("xx0", lambda v: xyz_weights(v, v, 0.0)),
    ("xxx", lambda v: xyz_weights(v, v, v)),
)
_FIG2_FAMILIES = _FIG1_DIRECTIONS + (
    ("1x0", lambda v: xyz_weights(1.0, v, 0.0)),
    ("1xx", lambda v: xyz_weights(1.0, v, v)),
    ("11x", lambda v: xyz_weights(1.0, 1.0, v)),
)
_FIG2_X_VALUES = (0.25, 0.5, 0.75, 1.0)
_JOBS_HELP = "accepted for compatibility; has no effect (grids run in one process)"


# ---------------------------------------------------------------------------
# output rendering


def _csv_field(v) -> str:
    """A value's text: None as the empty field, a str as it is, anything
    else as ``format(v, _G17)``, which prints a float to 17 significant
    digits (nan, inf and -inf as such, -0.0 as -0), a boolean as 1 or 0, and
    raises TypeError for a value that is not a number."""
    if v is None:
        return ""
    return v if isinstance(v, str) else format(v, _G17)


def _render_json(obj, indent: int) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad}  "{key}": {_render_json(value, indent + 2)}'
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render_json(v, indent) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    text = format(obj, _G17)
    # JSON has no literal for a non-finite number: it goes out as a string
    return text if math.isfinite(obj) else f'"{text}"'


def _scalar_document(args, payload: dict) -> Iterable[str]:
    """The JSON record or CSV row of a scalar command. The record's command
    echoes the parsed flags but --out and --format, in the order the
    subcommand declares them, which is the order argparse fills its
    namespace in; a flag whose value is None, such as the unset member of a
    flag group, is left out."""
    if args.format == "csv":
        return (",".join(payload) + "\n" + ",".join(map(_csv_field, payload.values())) + "\n",)
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "func", "out", "format") and value is not None}
    record = {"format": FORMAT_VERSION, "command": {"name": args.command, **flags},
              "payload": payload}
    return (_render_json(record, 0) + "\n",)


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write the chunks as they come: to stdout; to ``out`` itself if it is
    a device, FIFO or other special file; else to a temporary file beside the
    path ``out`` resolves to, which takes the old file's mode, replaces it
    once all chunks are written, and is removed on any failure, SIGTERM and
    SIGHUP included."""
    if out is None:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return
    mode = os.stat(out).st_mode if os.path.exists(out) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        return
    head, tail = os.path.split(os.path.realpath(out))
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    # SIGTERM's and SIGHUP's default action ends the process at once; as
    # exceptions they reach the cleanup below. An ignored one stays ignored.
    previous = {signum: signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGHUP)}
    for signum, handler in previous.items():
        if handler is not signal.SIG_IGN:
            signal.signal(signum, _exit_on_signal)
    try:
        with open(temp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        os.replace(temp, os.path.join(head, tail))
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temp)
        if isinstance(exc, OSError):  # name the target, not the temporary file
            raise OSError(exc.errno, exc.strerror, out) from None
        raise
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _numbers_type(names: str, words=()):
    """argparse type for as many comma-separated numbers as ``names``, such
    as "X,Y,Z", spells out, returned as a tuple of floats; a text among
    ``words`` is returned as it is."""
    count = len(names.split(","))
    expected = ", ".join([*words, f"or {names}"]) if words else names

    def parse(text: str):
        if text in words:
            return text
        parts = text.split(",")
        if len(parts) == count:
            with contextlib.suppress(ValueError):
                return tuple(float(p) for p in parts)
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_xyz_type = _numbers_type("X,Y,Z")


def _range_type(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected MIN:MAX:COUNT, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed range {text!r}") from None
    if count < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"degenerate range {text!r}")
    return lo, hi, count


# ---------------------------------------------------------------------------
# scalar commands


def _cmd_entropy(args) -> Iterable[str]:
    q = args.q
    if args.weights is not None:
        joint = Spectrum.from_values(checked_weights(args.weights), stochastic=True)
    else:
        joint = bell_spectrum(BellDiagonalState(*args.xyz))
    marginal = tsallis_entropy(Spectrum.uniform(2), q)  # both marginals are maximally mixed
    payload = {
        "S_q_joint": tsallis_entropy(joint, q),
        "S_q_A": marginal,
        "S_q_B": marginal,
    }
    return _scalar_document(args, payload)


def _cmd_cond(args) -> Iterable[str]:
    s = BellDiagonalState(*args.xyz)
    result = conditional_entropy_bell(s, args.q)
    payload = {
        "value": result.value,
        "cond_b_given_a": result.value,
        "cond_a_given_b": result.value,
    }
    return _scalar_document(args, payload)


def _cmd_classify(args) -> Iterable[str]:
    s = BellDiagonalState(*args.xyz)
    # resolved before rendering, so the record echoes the band applied
    args.boundary_tol = boundary_tol_for(args.method, args.boundary_tol)
    result = classify_state(s, args.method, args.boundary_tol)
    payload = {
        "verdict": result.verdict,
        "criterion": result.criterion,
        "witness": result.witness,
        "witness_q": result.witness_q,
    }
    return _scalar_document(args, payload)


def _cmd_threshold(args) -> Iterable[str]:
    value = threshold_x(args.q, args.direction, args.tol)
    payload = {"threshold_x": value}
    return _scalar_document(args, payload)


def _cmd_qinflex(args) -> Iterable[str]:
    s = BellDiagonalState(*args.xyz)
    report = order_parameter(s, q_max=args.q_max)
    payload = {
        "q_inflexion": report.q_inflexion,
        "eta": report.eta,
        "vertex": report.vertex,
        "bracket": report.bracket,
        "d2_at_bracket": report.d2_at_bracket,
    }
    return _scalar_document(args, payload)


# ---------------------------------------------------------------------------
# grid commands and figure emission


def _grid_document(header: list[str], axes, evaluate) -> Iterable[str]:
    """CSV chunks of every cell of the grid ``axes`` (``grid_axes`` output),
    x-major: the header line, then one chunk per x plane. A row holds x, y,
    z, physical, then the result fields of a physical cell, left empty for
    the others, as CSV text from ``evaluate(x, y, z)``: ``grid_results`` calls
    it for the physical cells only, in row order, and once per Bell-weight
    multiset when it is wrapped in ``by_weight_multiset``.

    Each axis point is formatted once and looked up by position: a cache
    keyed on the float would print -0.0 wherever 0.0 came first, as
    0.0 == -0.0. The text after x and y of a non-physical row depends on z
    alone: it is made once per z point and joined for each non-physical run.
    """
    xs, ys, zs = ([format(v, _G17) for v in axis] for axis in axes)
    tails = [f"{z},0{',' * (len(header) - 4)}\n" for z in zs]
    lines = grid_results(axes, evaluate)
    yield ",".join(header) + "\n"
    for fx in xs:
        plane = []
        for fy, (_, _, lo, hi, results) in zip(ys, lines):
            prefix = f"{fx},{fy},"
            if lo > 0:
                plane.append(prefix + prefix.join(tails[:lo]))
            if results:
                plane += [f"{prefix}{fz},1,{result}\n" for fz, result in zip(zs[lo:hi], results)]
            if hi < len(zs):
                plane.append(prefix + prefix.join(tails[hi:]))
        yield "".join(plane)


def _cmd_scan(args) -> Iterable[str]:
    specs = [spec if spec is not None else args.range
             for spec in (args.xrange, args.yrange, args.zrange)]
    tol = boundary_tol_for(args.method, args.boundary_tol)

    def classify(x, y, z):
        c = classify_state(BellDiagonalState(x, y, z), args.method, tol)
        return f"{c.verdict},{c.criterion},{c.witness:{_G17}},{_csv_field(c.witness_q)}"

    header = ["x", "y", "z", "physical", "verdict", "criterion", "witness", "witness_q"]
    return _grid_document(header, grid_axes(*specs), classify)


def _figure_fig1a() -> Iterable[str]:
    lines = ["direction,x,q,S_q_cond\n"]
    for label, family in _FIG1_DIRECTIONS:
        for q in _FIG1_Q_SET:
            for k in range(201):
                x = k / 200.0
                s_q = entropy_kernel(bell_log_pairs(family(x)), q)
                lines.append(f"{label},{x:{_G17}},{q:{_G17}},{s_q:{_G17}}\n")
    return lines


def _figure_fig1b() -> Iterable[str]:
    # the edge from the phi+ vertex (-3, 1, 1) to the psi- vertex (1, 1, 1)
    lines = ["x,q,S_q_cond\n"]
    for q in _FIG1_Q_SET:
        for k in range(801):
            x = (k - 600) / 200.0
            s_q = entropy_kernel(bell_log_pairs(xyz_weights(x, 1.0, 1.0)), q)
            lines.append(f"{x:{_G17}},{q:{_G17}},{s_q:{_G17}}\n")
    return lines


def _figure_fig2() -> Iterable[str]:
    curves = [
        (f"{name}_{value:g}", family(value))
        for name, family in _FIG2_FAMILIES
        for value in _FIG2_X_VALUES
    ]
    curves.append(("xxx_0", xyz_weights(0.0, 0.0, 0.0)))
    lines = ["label,q,S_q_cond\n"]
    for label, weights in curves:
        pairs = bell_log_pairs(weights)
        skip_zero = len(pairs) < len(weights)  # rank deficient: 0^q is ambiguous at q = 0
        for k in range(1301):
            q = (k - 300) / 100.0
            if skip_zero and abs(q) <= 1e-6:
                continue
            lines.append(f"{label},{q:{_G17}},{entropy_kernel(pairs, q):{_G17}}\n")
    return lines


def _figure_fig3() -> Iterable[str]:
    spec = (-3.0, 1.0, 41)
    band = boundary_tol_for("ar-asymptotic")

    def evaluate(weights):
        verdict = max_weight_verdict(weights, band)[0]
        return f"{verdict},{inflexion_report(weights, Q_MAX_DEFAULT).eta:{_G17}}"

    # a row depends on a cell only through its weight multiset (see criticality)
    return _grid_document(["x", "y", "z", "physical", "verdict", "eta"],
                          grid_axes(spec, spec, spec), by_weight_multiset(evaluate))


_FIGURES = {"fig1a": _figure_fig1a, "fig1b": _figure_fig1b,
            "fig2": _figure_fig2, "fig3": _figure_fig3}


# ---------------------------------------------------------------------------
# parser assembly


def _add_output_flags(parser, formats=("json", "csv")) -> None:
    parser.add_argument("--out", default=None, help="write output to this path")
    if formats:
        parser.add_argument("--format", choices=formats, default="json",
                            help="output format (default json)")


def _add_band_flags(parser) -> None:
    parser.add_argument("--method", choices=tuple(CLASSIFIERS), default="ar-asymptotic")
    parser.add_argument("--boundary-tol", type=float, default=None,
                        help="width of the boundary verdict band")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsep",
        description="Separability analysis of Bell-diagonal two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="Tsallis entropies of a state and its marginals")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--xyz", type=_xyz_type, help="state parameters X,Y,Z")
    group.add_argument("--weights", type=_numbers_type("W1,W2,W3,W4"),
                       help="Bell weights W1,W2,W3,W4")
    p.add_argument("--q", type=float, required=True, help="entropic index")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("cond", help="conditional entropy S_q(B|A) of a state")
    p.add_argument("--xyz", type=_xyz_type, required=True)
    p.add_argument("--q", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_cond)

    p = sub.add_parser("classify", help="separability verdict for a state")
    p.add_argument("--xyz", type=_xyz_type, required=True)
    _add_band_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("threshold", help="critical ray parameter at fixed q")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--direction", type=_numbers_type("DX,DY,DZ", words=tuple(NAMED_DIRECTIONS)),
                   default="diag",
                   help=f"{', '.join(NAMED_DIRECTIONS)}, or DX,DY,DZ")
    p.add_argument("--tol", type=float, default=THRESHOLD_TOL_DEFAULT)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("qinflex", help="inflexion index and order parameter eta")
    p.add_argument("--xyz", type=_xyz_type, required=True)
    p.add_argument("--q-max", type=float, default=Q_MAX_DEFAULT)
    # the bracket fields are lists, which a single CSV row cannot hold
    _add_output_flags(p, formats=("json",))
    p.set_defaults(func=_cmd_qinflex)

    p = sub.add_parser("figure", help="emit a figure dataset as CSV")
    p.add_argument("which", choices=_FIGURES)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_output_flags(p, formats=())
    p.set_defaults(func=lambda args: _FIGURES[args.which]())

    p = sub.add_parser("scan", help="classify a Cartesian grid of states")
    p.add_argument("--range", type=_range_type, default="-3:1:21",
                   help="MIN:MAX:COUNT applied to all axes (default %(default)s)")
    p.add_argument("--xrange", type=_range_type, default=None)
    p.add_argument("--yrange", type=_range_type, default=None)
    p.add_argument("--zrange", type=_range_type, default=None)
    _add_band_flags(p)
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
    _add_output_flags(p, formats=())
    p.set_defaults(func=_cmd_scan)

    return parser


def _normalise_argv(argv: list[str]) -> list[str]:
    """Fold ``--name VALUE`` into ``--name=VALUE`` where VALUE starts with a
    single "-", such as a negative range or a path like -r.csv: argparse
    takes such a token as a value only if it is a bare negative number.
    Every long option but --help takes exactly one value, so the token after
    one is its value. -h is never a value, and nothing is folded into
    --help, its abbreviations or the "--" separator (prefixes of "--help")."""
    out = []
    for token in argv:
        last = out[-1] if out else ""
        if (last.startswith("--") and "=" not in last and not "--help".startswith(last)
                and token.startswith("-") and not token.startswith("--") and token != "-h"):
            out[-1] = f"{last}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalise_argv(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _write(args.func(args), args.out)
    except ValueError as exc:  # UnphysicalStateError among them
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # the reader stopped early (`qsep scan | head`): drop the rest quietly
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
