"""Command-line entry point: field evaluation, transforms, verification and
plot-script emission.

Outputs are deterministic: fixed summation order, atomic writes (temp file +
rename), and the per-value %.17g (CSV) and repr (JSON) text of every float,
with each distinct float formatted once.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

import click
import numpy as np

from . import fields, radon, verify
from .core import PlaneQuadrature, sphere_quadrature

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
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"malformed JSON parameters: {exc}") from exc
    if not isinstance(params, dict):
        raise click.UsageError("parameters must be a JSON object")
    return params


def _parse_grid(spec: str):
    axes = []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise click.UsageError("grid spec must be 'x0:x1:n,y0:y1:n,z0:z1:n'")
        try:
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise click.UsageError(f"malformed grid axis {part!r}: {exc}") from exc
        if not (np.isfinite([lo, hi]).all() and n >= 1):
            raise click.UsageError(f"grid axis {part!r} needs finite bounds, positive count")
        axes.append(np.linspace(lo, hi, n))
    if len(axes) != 3:
        raise click.UsageError("grid spec needs three axes")
    return axes


def _parse_quad(spec: str):
    pieces = spec.split(",")
    if len(pieces) != 2:
        raise click.UsageError("quad spec must be 'npolar,nazimuth'")
    return int(pieces[0]), int(pieces[1])


# the --params keys each catalog field reads; trk radon --field lundquist
# also reads n_ring
_PARAM_KEYS = {
    "lundquist": ("f0", "nu"),
    "gaussian": ("center", "width", "polarization"),
    "abc": ("a", "b", "c", "nu"),
    "ck_circular": ("m", "k", "nu", "amplitude"),
    "modes": ("g", "modes"),
}
_MODE_KEYS = ("lam", "nu", "kappa0", "amplitude_re", "amplitude_im", "mu")


def _check_keys(what: str, params: dict, accepted) -> None:
    """UsageError naming the accepted keys when ``params`` has any other key."""
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise click.UsageError(f"unknown {what} parameter(s) {', '.join(unknown)};"
                               f" accepted: {', '.join(accepted)}")


def build_field(name: str, params: dict):
    """Field catalog addressable by name plus JSON parameters."""
    if name == "modes":
        return fields.mode_sampled_field(_mode_field_from_params(params))
    if name not in _PARAM_KEYS:
        raise click.ClickException(f"unknown field name {name!r}")
    _check_keys(name, params, _PARAM_KEYS[name])
    if name == "lundquist":
        return fields.lundquist(float(params.get("f0", 1.0)), float(params.get("nu", 1.0)))
    if name == "gaussian":
        return fields.gaussian_test_field(
            params.get("center", (0.0, 0.0, 0.0)),
            float(params.get("width", 1.0)),
            params.get("polarization", (1.0, 0.0, 0.0)),
        )
    if name == "abc":
        return fields.abc_field(
            float(params.get("a", 1.0)), float(params.get("b", 1.0)),
            float(params.get("c", 1.0)), float(params.get("nu", 1.0)))
    return fields.ck_circular(fields.CKCircularParams(
        m=int(params.get("m", 0)), k=float(params.get("k", 0.0)),
        nu=float(params.get("nu", 1.0)),
        amplitude=float(params.get("amplitude", 1.0))))


def _mode_field_from_params(params: dict) -> fields.ModeField:
    _check_keys("modes", params, _PARAM_KEYS["modes"])
    try:
        g = float(params.get("g", 1.0))
        modes = []
        for rec in params["modes"]:
            if not isinstance(rec, dict):
                raise TypeError("each mode must be a JSON object")
            _check_keys("mode", rec, _MODE_KEYS)
            amp = complex(rec.get("amplitude_re", 1.0), rec.get("amplitude_im", 0.0))
            modes.append(fields.HelicityMode(
                lam=int(rec["lam"]), nu=float(rec["nu"]), kappa0=np.asarray(rec["kappa0"]),
                amplitude=amp, mu=int(rec.get("mu", 1)), g=g))
        return fields.ModeField(modes=tuple(modes))
    except (KeyError, TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid mode parameters: {type(exc).__name__}: {exc}") from exc


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
    xs, ys, zs = _parse_grid(grid_spec)
    # catalog parameters are usage errors, raised before any evaluation
    try:
        f = build_field(field_name, parsed)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid {field_name} input: {exc}") from exc
    xx, yy, zz = np.meshgrid(xs, ys, zs, indexing="ij")
    pts = np.stack([xx, yy, zz], axis=-1).reshape(-1, 3)
    _atomic_write(out_dir / "field.csv",
                  radon.format_csv("x,y,z,re_fx,im_fx,re_fy,im_fy,re_fz,im_fz", pts, f(pts)))

    meta = {
        "field": f.name,
        "params": parsed,
        "rows": int(pts.shape[0]),
        "eigenvalue": f.eigenvalue,
        "mu": f.mu,
        "helicity": f.helicity,
    }
    _atomic_write(out_dir / "field_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {pts.shape[0]} rows to {out_dir / 'field.csv'}")


@main.command("radon")
@click.option("--field", "field_name", required=True,
              help="gaussian (numeric grid) or lundquist / modes (analytic atoms)")
@click.option("--params", default="{}", help="JSON parameter object")
@click.option("--quad", "quad_spec", default="8,16", help="sphere rule npolar,nazimuth")
@click.option("--pgrid", "pgrid_spec", default="-8:8:64", help="p-grid spec p0:p1:n")
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def cmd_radon(field_name, params, quad_spec, pgrid_spec, out_dir) -> None:
    """Transform a catalog field; numeric grids go to CSV, atoms to JSON."""
    parsed = _parse_params(params)
    sidecar: dict = {"field": field_name, "params": parsed}

    # malformed specs and catalog parameters are usage errors, raised before
    # the grid transform runs
    try:
        if field_name == "lundquist":
            _check_keys("lundquist", parsed, _PARAM_KEYS["lundquist"] + ("n_ring",))
            profile = radon.lundquist_radon_profile(
                float(parsed.get("f0", 1.0)), float(parsed.get("nu", 1.0)),
                n_ring=int(parsed.get("n_ring", 64)))
        elif field_name == "modes":
            profile = radon.radon_mode_analytic(_mode_field_from_params(parsed))
        elif field_name == "gaussian":
            f = build_field("gaussian", parsed)
            width = float(parsed.get("width", 1.0))
            sphere = sphere_quadrature(*_parse_quad(quad_spec), antipodal=True)
            pieces = pgrid_spec.split(":")
            if len(pieces) != 3:
                raise click.UsageError("pgrid spec must be 'p0:p1:n'")
            p0, p1, n_p = float(pieces[0]), float(pieces[1]), int(pieces[2])
            p = radon.validate_p_grid(p0 + (p1 - p0) * np.arange(n_p) / n_p)
            # row (shift - i) mod n_p holds -p_i modulo the period
            shift = -2.0 * p0 * n_p / (p1 - p0)
            if abs(shift - round(shift)) > 1e-9 * max(1.0, abs(shift)):
                raise ValueError(f"pgrid {pgrid_spec!r} is not symmetric modulo its period:"
                                 f" -2 p0 / dp = {shift:.6g} is not an integer")
        else:
            raise click.ClickException(f"unknown field name {field_name!r}")
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid {field_name} input: {exc}") from exc

    if field_name != "gaussian":
        _atomic_write(out_dir / "profile_atoms.json", radon.profile_to_json(profile) + "\n")
        sidecar.update(mode="analytic", atoms=len(profile.frequencies),
                       support="equatorial-ring" if field_name == "lundquist" else "point-atoms")
    else:
        plane = PlaneQuadrature(half_width=8.0 * width, n_per_axis=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", radon.TruncationWarning)
            grid = radon.radon_forward_grid(f, p, sphere, plane)
        truncation = next((w.message for w in caught
                           if w.category is radon.TruncationWarning), None)
        if truncation is not None:
            click.echo("warning: plane truncation boundary not negligible", err=True)
        _atomic_write(out_dir / "profile_grid.csv", radon.grid_to_csv(grid))

        # parity scan F^R(-p, -kappa) = F^R(p, kappa) on the sampled grid; the
        # grid transform shares each plane between (p, kappa) and (-p, -kappa),
        # so what is left is the wrap of the periodic p-range, measured by the
        # magnitude on its end rows
        at_minus_p = (round(shift) - np.arange(n_p)) % n_p
        parity = float(np.max(np.abs(
            grid.samples - grid.samples[np.ix_(at_minus_p, sphere.antipode_index)])))
        scale = float(np.max(np.abs(grid.samples))) or 1.0  # a zero grid has no defect
        parity_rel = parity / scale
        sidecar.update(mode="grid", parity_defect=parity, parity_defect_rel=parity_rel,
                       parity_check="pass" if parity_rel < 1e-8 else "fail",
                       dc_content_rel=radon.grid_atoms(grid).dc_content() / scale,
                       p_end_ratio=float(np.max(np.abs(grid.samples[[0, -1]]))) / scale,
                       truncation_warning=truncation is not None,
                       truncated_planes=0 if truncation is None else truncation.n_truncated,
                       truncation_worst_ratio=None if truncation is None
                       else truncation.worst_ratio,
                       n_p=n_p, n_directions=sphere.n)

    _atomic_write(out_dir / "radon_meta.json", json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote transform outputs to {out_dir}")


@main.command("verify")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None)
@click.option("--only", "only_filter", default=None, help="run records whose name contains this")
@click.option("--tol", "tol_overrides", multiple=True, help="NAME=VALUE tolerance override")
def cmd_verify(out_path, only_filter, tol_overrides) -> None:
    """Run the identity suite; exit 0 iff every record passes."""
    overrides = {}
    for item in tol_overrides:
        if "=" not in item:
            raise click.UsageError("tolerance override must be NAME=VALUE")
        name, value = item.split("=", 1)
        overrides[name] = value
    try:
        verify.select_checks(only_filter, overrides)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    report = verify.run_verify(only=only_filter, tolerances=overrides)
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


_PLOT_KINDS = ("lundquist_radial", "radon_heatmap", "verify_residuals")


@main.command("plot")
@click.option("--kind", required=True, type=click.Choice(_PLOT_KINDS))
@click.option("--data", "data_path", required=True, type=click.Path(path_type=Path))
@click.option("--out", "out_dir", required=True, type=click.Path(path_type=Path))
def cmd_plot(kind, data_path, out_dir) -> None:
    """Emit a plain-text gnuplot script referencing previously written data."""
    if not data_path.exists():
        click.echo(f"missing input {data_path}", err=True)
        raise SystemExit(2)

    if kind == "lundquist_radial":
        xs = np.linspace(0.0, 8.0, 161)
        from .core import bessel_j
        _atomic_write(out_dir / "lundquist_radial.csv", radon.format_csv(
            "r,j0,j1", np.column_stack([xs, bessel_j(0, xs), bessel_j(1, xs)])))
        script = (
            "set datafile separator ','\n"
            "set xlabel 'nu r'\n"
            "set ylabel 'component'\n"
            f"plot '{out_dir / 'lundquist_radial.csv'}' using 1:2 with lines title 'axial (J0)', \\\n"
            f"     '{out_dir / 'lundquist_radial.csv'}' using 1:3 with lines title 'azimuthal (J1)'\n"
        )
        _atomic_write(out_dir / "lundquist_radial.gp", script)
    elif kind == "radon_heatmap":
        script = (
            "set datafile separator ','\n"
            "set xlabel 'p'\n"
            "set ylabel 'direction azimuth'\n"
            "set view map\n"
            f"splot '{data_path}' using 1:(atan2($3,$2)):5 with points pt 5 palette title '|Re F_x|'\n"
        )
        _atomic_write(out_dir / "radon_heatmap.gp", script)
    else:
        row = ",".join(["%s", radon.FLOAT_FMT, radon.FLOAT_FMT])
        try:
            records = json.loads(Path(data_path).read_text())["records"]
            rows = [row % (r["name"], r["residual"], r["tolerance"]) for r in records]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
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
        _atomic_write(out_dir / "verify_residuals.gp", script)
    click.echo(f"wrote plot script to {out_dir}")


if __name__ == "__main__":
    main()
