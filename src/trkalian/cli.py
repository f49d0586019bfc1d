"""Command-line entry point: field evaluation, transforms, verification and
plot-script emission.

Outputs are deterministic: fixed summation order, atomic writes (temp file +
rename), and the per-value %.17g (CSV) and repr (JSON) text of every float.
The CSV writer formats each distinct value of each column once and joins the
cells; the JSON writer formats each distinct float once into one template.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import fields, radon, verify
from .core import PlaneQuadrature, _check_finite, sphere_quadrature

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_params(text: str) -> dict:
    try:
        params = json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal beyond int()'s digit limit
        raise click.UsageError(f"malformed JSON parameters: {exc}") from exc
    if not isinstance(params, dict):
        raise click.UsageError("parameters must be a JSON object")
    _check_float_range(params)
    return params


def _check_float_range(value, key: str = "") -> None:
    """UsageError naming the key of the first JSON integer in ``value`` that no
    float holds, which the catalog's float() would raise OverflowError on."""
    if isinstance(value, dict):
        for name, item in value.items():
            _check_float_range(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_float_range(item, f"{key}[{i}]")
    elif isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise click.UsageError(f"parameter {key} is an integer beyond the float range"
                                   f" ({value.bit_length()} bits)") from None


# the most points whose (points, 3) float64 array numpy can index in bytes
_MAX_GRID_POINTS = np.iinfo(np.intp).max // 24


def _parse_axis(part: str, option: str) -> tuple[float, float, int]:
    """(lo, hi, n) of one axis 'lo:hi:n' of ``option``: finite bounds and a count
    from 1 to _MAX_GRID_POINTS, else a UsageError naming the option and the axis."""
    try:
        lo, hi, n = part.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:  # not three fields, or one that is no number
        raise click.UsageError(f"{option} axis {part!r} is not lo:hi:n: {exc}") from exc
    if not (np.isfinite([lo, hi]).all() and n >= 1):
        raise click.UsageError(f"{option} axis {part!r} needs finite bounds, positive count")
    if n > _MAX_GRID_POINTS:
        raise click.UsageError(f"{option} axis {part!r} has too many points:"
                               f" numpy indexes at most {_MAX_GRID_POINTS}")
    return lo, hi, n


def _parse_grid(spec: str):
    axes = [_parse_axis(part, "--grid") for part in spec.split(",")]
    if len(axes) != 3:
        raise click.UsageError("grid spec needs three axes x0:x1:n,y0:y1:n,z0:z1:n")
    total = axes[0][2] * axes[1][2] * axes[2][2]
    if total > _MAX_GRID_POINTS:
        raise click.UsageError(f"grid {spec!r} has too many points: {total} of at most"
                               f" {_MAX_GRID_POINTS} that numpy indexes")
    return axes


def _parse_quad(spec: str):
    """(n_polar, n_azimuth, antipodal sphere rule) of --quad, else a UsageError naming it."""
    try:
        n_polar, n_azimuth = map(int, spec.split(","))
        return n_polar, n_azimuth, sphere_quadrature(n_polar, n_azimuth, antipodal=True)
    except ValueError as exc:  # not two integers, or no sphere rule
        raise click.UsageError(f"--quad {spec!r} is no sphere rule npolar,nazimuth: {exc}") from exc


def _integer(key: str, value) -> int:
    """``value`` as an int; ValueError naming ``key`` where int() would truncate."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _mode_field(p: dict) -> fields.ModeField:
    return fields.ModeField(modes=tuple(fields.HelicityMode(
        lam=_integer("lam", m["lam"]), nu=float(m["nu"]), kappa0=np.asarray(m["kappa0"]),
        amplitude=complex(m["amplitude_re"], m["amplitude_im"]), mu=_integer("mu", m["mu"]),
        g=float(p["g"])) for m in p["modes"]))


class _Entry(NamedTuple):
    defaults: dict  # each --params key with its default, or _REQUIRED
    build: Callable  # resolved parameters -> field
    transform: Callable | None = None  # resolved parameters -> exact atom profile
    transform_defaults: dict = {}  # the keys that only the transform reads


_REQUIRED = object()
_MODE_DEFAULTS = {"lam": _REQUIRED, "nu": _REQUIRED, "kappa0": _REQUIRED,
                  "amplitude_re": 1.0, "amplitude_im": 0.0, "mu": 1}
_CATALOG = {
    "lundquist": _Entry(
        {"f0": 1.0, "nu": 1.0}, lambda p: fields.lundquist(float(p["f0"]), float(p["nu"])),
        lambda p: radon.lundquist_radon_profile(float(p["f0"]), float(p["nu"]),
                                                n_ring=_integer("n_ring", p["n_ring"])),
        {"n_ring": 64}),
    "gaussian": _Entry(
        {"center": [0.0, 0.0, 0.0], "width": 1.0, "polarization": [1.0, 0.0, 0.0]},
        lambda p: fields.gaussian_test_field(p["center"], float(p["width"]), p["polarization"])),
    "abc": _Entry({"a": 1.0, "b": 1.0, "c": 1.0, "nu": 1.0}, lambda p: fields.abc_field(
        float(p["a"]), float(p["b"]), float(p["c"]), float(p["nu"]))),
    "ck_circular": _Entry(
        {"m": 0, "k": 0.0, "nu": 1.0, "amplitude": 1.0}, lambda p: fields.ck_circular(
            _integer("m", p["m"]), float(p["k"]), float(p["nu"]), float(p["amplitude"]))),
    "modes": _Entry(
        {"g": 1.0, "modes": _REQUIRED}, lambda p: fields.mode_sampled_field(_mode_field(p)),
        lambda p: radon.radon_mode_analytic(_mode_field(p))),
}
# trk radon samples the gaussian on a grid and gives the others their exact atoms
_RADON_FIELDS = ("gaussian",) + tuple(name for name, e in _CATALOG.items() if e.transform)


def _resolve(what: str, given, defaults: dict) -> dict:
    """The defaults updated by the given keys, and a modes object's records by
    theirs: a UsageError naming the accepted keys on any other key."""
    if not isinstance(given, dict):
        raise TypeError(f"each {what} must be a JSON object")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise click.UsageError(f"unknown {what} parameter(s) {', '.join(unknown)};"
                               f" accepted: {', '.join(defaults)}")
    resolved = {**defaults, **given}
    missing = [key for key, value in resolved.items() if value is _REQUIRED]
    if missing:
        raise ValueError(f"missing {what} parameter(s) {', '.join(missing)}")
    if what == "modes":
        resolved["modes"] = [_resolve("mode", m, _MODE_DEFAULTS) for m in resolved["modes"]]
    return resolved


def build_field(name: str, params: dict):
    """Catalog field ``name`` of its resolved parameters (:func:`_resolve`)."""
    return _CATALOG[name].build(params)


@click.group()
def main() -> None:
    """Constant-curl field toolkit: catalog fields, transforms, verification."""


@main.command("field-eval")
@click.option("--field", "field_name", required=True, help="catalog field name")
@click.option("--params", default="{}", help="JSON parameter object")
@click.option("--grid", "grid_spec", default="-1:1:11,-1:1:11,-1:1:11",
              help="grid spec x0:x1:n,y0:y1:n,z0:z1:n")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def cmd_field_eval(field_name, params, grid_spec, out_dir) -> None:
    """Evaluate a catalog field on a grid; writes CSV plus a metadata sidecar."""
    parsed = _parse_params(params)
    axes = _parse_grid(grid_spec)
    # catalog parameters are usage errors, raised before any evaluation
    if field_name not in _CATALOG:
        raise click.UsageError(f"unknown field name {field_name!r}; accepted: {', '.join(_CATALOG)}")
    try:
        resolved = _resolve(field_name, parsed, _CATALOG[field_name].defaults)
        f = build_field(field_name, resolved)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid {field_name} input: {exc}") from exc
    try:
        xx, yy, zz = np.meshgrid(*[np.linspace(*axis) for axis in axes], indexing="ij")
        pts = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
        with np.errstate(all="ignore"):  # a value that is not finite is reported below
            values = f(pts)
        finite = np.isfinite(values)
        if not finite.all():
            bad = ~finite.all(axis=-1)
            raise click.ClickException(
                f"{field_name} is not finite at {np.count_nonzero(bad)} of {len(pts)} grid"
                f" points, the first at {pts[np.argmax(bad)].tolist()}; nothing written")
        text = radon.format_csv("x,y,z,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz", pts, values)
    except MemoryError:
        raise click.ClickException(f"not enough memory for --grid {grid_spec};"
                                   " nothing written") from None
    _atomic_write(out_dir / "field.csv", text)

    meta = {"field": f.name, "params": resolved, "grid": axes, "rows": int(pts.shape[0]),
            "eigenvalue": f.eigenvalue, "mu": f.mu, "helicity": f.helicity}
    _atomic_write(out_dir / "field_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {pts.shape[0]} rows to {out_dir / 'field.csv'}")


@main.command("radon")
@click.option("--field", "field_name", required=True,
              help="gaussian (numeric grid) or lundquist / modes (analytic atoms)")
@click.option("--params", default="{}", help="JSON parameter object")
@click.option("--quad", "quad_spec", default=None,
              help="sphere rule npolar,nazimuth, --field gaussian only [default: 8,16]")
@click.option("--pgrid", "pgrid_spec", default=None,
              help="p-grid spec p0:p1:n, --field gaussian only [default: -8:8:64]")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def cmd_radon(field_name, params, quad_spec, pgrid_spec, out_dir) -> None:
    """Transform a catalog field; numeric grids go to CSV, atoms to JSON."""
    if field_name not in _RADON_FIELDS:
        raise click.UsageError(f"trk radon transforms --field {', '.join(_RADON_FIELDS)};"
                               f" not {field_name!r}")
    given = [option for option, spec in (("--quad", quad_spec), ("--pgrid", pgrid_spec))
             if spec is not None]
    if field_name != "gaussian" and given:
        raise click.UsageError(f"--field {field_name} is exact atoms, sized by --params:"
                               f" it takes no {' or '.join(given)}")
    quad_spec = "8,16" if quad_spec is None else quad_spec
    pgrid_spec = "-8:8:64" if pgrid_spec is None else pgrid_spec
    parsed = _parse_params(params)
    sizes = (f"--quad {quad_spec} --pgrid {pgrid_spec}" if field_name == "gaussian"
             else f"--params {params}")  # n_ring sizes a lundquist profile
    no_memory = f"not enough memory for {sizes}; nothing written"

    # malformed specs and catalog parameters are usage errors, raised before any transform
    entry = _CATALOG[field_name]
    try:
        resolved = _resolve(field_name, parsed, {**entry.defaults, **entry.transform_defaults})
        if field_name != "gaussian":
            profile = entry.transform(resolved)
        else:
            build_field("gaussian", resolved)  # the value checks
            width = float(resolved["width"])
            pol = np.asarray(resolved["polarization"], dtype=complex)
            envelope = fields.gaussian_scalar(resolved["center"], width)
            p0, p1, n_p = _parse_axis(pgrid_spec, "--pgrid")
            # as scalars, before the grid's (p1 - p0) k for k < n can overflow
            _check_finite(**{"p1 - p0": p1 - p0, "(p1 - p0) n": (p1 - p0) * n_p})
            n_polar, n_azimuth, sphere = _parse_quad(quad_spec)
            p = radon.validate_p_grid(p0 + (p1 - p0) * np.arange(n_p) / n_p)
            # pi width^2 bounds each plane integral, and the grid table's FFT sums n_p of them
            if not np.isfinite(4 * n_p * np.pi * width**2 * float(np.abs(pol.view(float)).max())):
                raise ValueError(f"polarization {pol.tolist()} overflows the transform at width"
                                 f" {width!r}: 4 n_p pi width^2 max|P| is not finite")
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid {field_name} input: {exc}") from exc
    except MemoryError:
        raise click.ClickException(no_memory) from None

    sidecar: dict = {"field": field_name, "params": resolved}
    if field_name != "gaussian":
        _atomic_write(out_dir / "profile_atoms.json", radon.profile_to_json(profile) + "\n")
        sidecar.update(mode="analytic", atoms=len(profile.frequencies),
                       support="equatorial-ring" if field_name == "lundquist" else "point-atoms")
    else:
        try:
            # R[g P] = R[g] P: the real envelope g is integrated, one real per node,
            # and its edge/peak ratios are those of g P unless P = 0, a zero field
            plane = PlaneQuadrature(half_width=8.0 * width)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", radon.TruncationWarning)
                scalar = radon.radon_forward_grid(envelope, p, sphere, plane)
            grid = radon.GridProfile(p=p, sphere=sphere, samples=scalar.samples[..., None] * pol)
            truncation = next((w.message for w in caught
                               if w.category is radon.TruncationWarning and np.any(pol)), None)
            if truncation is not None:
                click.echo("warning: plane truncation boundary not negligible", err=True)
            _atomic_write(out_dir / "profile_grid.csv", radon.grid_to_csv(grid))
        except MemoryError:
            raise click.ClickException(no_memory) from None

        # parity F^R(-p, -kappa) = F^R(p, kappa) of the grid's interpolant, row by
        # row; the wrap of the periodic p-range breaks it, and p_end_ratio names that
        parity = grid.parity_defect()
        scale = float(np.max(np.abs(grid.samples))) or 1.0  # a zero grid has no defect
        parity_rel = parity / scale
        sidecar.update(mode="grid", parity_defect=parity, parity_defect_rel=parity_rel,
                       parity_check="pass" if parity_rel < 1e-8 else "fail",
                       dc_content_rel=grid.dc_content() / scale,
                       p_end_ratio=float(np.max(np.abs(grid.samples[[0, -1]]))) / scale,
                       truncation_warning=truncation is not None,
                       truncated_planes=0 if truncation is None else truncation.n_truncated,
                       truncation_worst_ratio=None if truncation is None
                       else truncation.worst_ratio,
                       n_polar=n_polar, n_azimuth=n_azimuth, p0=p0, p1=p1, n_p=n_p,
                       n_directions=sphere.n, plane_rule=plane.rule,
                       plane_nodes_per_axis=plane.n_per_axis, plane_half_width=plane.half_width)

    _atomic_write(out_dir / "radon_meta.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote transform outputs to {out_dir}")


@main.command("verify")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--only", "only_filter", default=None, help="run records whose name contains this")
def cmd_verify(out_path, only_filter) -> None:
    """Run the identity suite; exit 0 iff every record passes."""
    try:
        verify.select_checks(only_filter)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    report = verify.run_verify(only=only_filter)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path is not None:
        _atomic_write(out_path, text)
    for rec in report["records"]:
        status = "pass" if rec["passed"] else "FAIL"
        click.echo(f"{status}  {rec['name']}  residual={rec['residual']:.3e}"
                   f"  tol={rec['tolerance']:.1e}")
    click.echo(f"{report['n_passed']}/{report['n_total']} passed")
    if not report["all_passed"]:
        raise SystemExit(1)


_PLOT_KINDS = ("radon_heatmap", "verify_residuals")


@main.command("plot")
@click.option("--kind", required=True, type=click.Choice(_PLOT_KINDS))
@click.option("--data", "data_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def cmd_plot(kind, data_path, out_dir) -> None:
    """Emit a plain-text gnuplot script referencing previously written data."""
    if kind == "radon_heatmap":
        with data_path.open(errors="replace") as handle:
            header = handle.readline().rstrip("\n")
        if header != radon.GRID_CSV_HEADER:
            raise click.UsageError(f"{data_path} is no trk radon profile_grid.csv:"
                                   f" its header is {header!r}")
        script = (
            "set datafile separator ','\n"
            "set xlabel 'p'\n"
            "set ylabel 'direction azimuth'\n"
            "set view map\n"
            f"splot '{data_path}' using 1:(atan2($3,$2)):5 with points pt 5 palette title 'Re F_x'\n"
        )
    else:
        row = ",".join(["%s", radon.FLOAT_FMT, radon.FLOAT_FMT])
        try:
            records = json.loads(data_path.read_text())["records"]
            rows = [row % (r["name"], r["residual"], r["tolerance"]) for r in records]
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: not JSON, not text
            raise click.UsageError(f"{data_path} is no trk verify report:"
                                   f" {type(exc).__name__}: {exc}") from exc
        _atomic_write(out_dir / "verify_residuals.csv",
                      "\n".join(["name,residual,tolerance"] + rows) + "\n")
        script = (
            "set datafile separator ','\n"
            "set logscale y\n"
            "set style data histogram\n"
            "set xtics rotate by -45\n"
            f"plot '{out_dir / 'verify_residuals.csv'}' using 2:xtic(1) title 'residual', \\\n"
            f"     '{out_dir / 'verify_residuals.csv'}' using 3 title 'tolerance'\n"
        )
    _atomic_write(out_dir / f"{kind}.gp", script)
    click.echo(f"wrote plot script to {out_dir}")


if __name__ == "__main__":
    main()
