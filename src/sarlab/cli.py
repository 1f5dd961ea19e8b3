"""Command-line front end: simulate, approximate, certify, sweep, reproduce.

Artifacts are CSV files plus generated gnuplot scripts, never rendered
images.  One run record (_Run) per command writes its files and its
manifest.json, which records the resolved configuration, the seeds, any
calibrated values, the tool version, the files written in order, the wall
time and the seconds per stage.  reproduce runs the commands' own cores on fixed inputs (simulate's
for fig3 and fig4, approximate's, sweep's and certify's for fig5).
CSV output is a pure function of (config, seed, version): rerunning a
command reproduces the data files byte for byte.  All numeric CSV fields
use %.17g.

build_parser declares, converts and checks every flag; each figure of
reproduce is a subcommand with its own flags and defaults (sarlab
reproduce figN --help), so a flag the figure does not take is a usage error.

Exit codes: 0 ok/feasible, 1 infeasible, 2 usage or config error,
3 simulation divergence, 4 training failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import morris_lecar as ml
from .certify import CertProblem, Certificate, certify, save_certificate, sigma_sweep
from .embedding import CHANNELS, EmbeddingConfig, EmbeddingReport, build_embedding
from .lure import LureSystem, load_system, read_json, write_json
from .sde import SdePath, SimConfig, lowpass, simulate
from .shallow import load_embedding, save_embedding, save_net

CHANNEL_NAMES = ("leak", "ca", "k")


class CliError(argparse.ArgumentTypeError):
    """Usage or configuration problem; maps to exit code 2.  An
    ArgumentTypeError, so argparse reports a type= converter's CliError
    with its text."""


# ---------------------------------------------------------------------------
# small helpers

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _load_json(path) -> dict:
    """read_json, with an unreadable file a usage error (main reports a
    malformed one's ValueError the same way)."""
    try:
        return read_json(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


MAX_GRID_POINTS = 10 ** 6  # the most points a grid flag may ask for (8 MB of floats)


# name is unused: argparse names the flag before a converter's error.  It
# stays because perfbench/workloads.py calls parse_range(text, "sigma").
def parse_range(text: str, name: str | None = None) -> np.ndarray:
    """Parse 'a:b:step' into an inclusive ascending grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"want a:b:step, got {text!r}")
    try:
        a, b, step = (float(t) for t in parts)
    except ValueError as exc:
        raise CliError(f"non-numeric bound in {text!r}") from exc
    for part, value in (("lower bound", a), ("upper bound", b), ("step", step)):
        if not math.isfinite(value):
            raise CliError(f"non-finite {part} in {text!r}")
    if step <= 0:
        raise CliError(f"step must be > 0 in {text!r}")
    # np.arange's length is the ceiling of count; inf when b + step / 2 overflows
    count = (b + step / 2.0 - a) / step
    if count > MAX_GRID_POINTS:
        points = math.ceil(count) if math.isfinite(count) else count
        raise CliError(f"{text!r} has {points} points, more than {MAX_GRID_POINTS}")
    grid = np.arange(a, b + step / 2.0, step)
    if grid.size == 0:
        raise CliError(f"empty range {text!r}")
    return grid


def _sigma_grid(text: str) -> np.ndarray:
    """The --sigma noise grid a:b:step of sweep and reproduce fig5."""
    sigmas = parse_range(text)
    if np.any(sigmas < 0):
        raise CliError(f"noise levels must be >= 0, got {text!r}")
    return sigmas


def _is_number(value) -> bool:
    """A finite JSON number a float can hold: a finite float (JSON reads
    NaN, Infinity and 1e400 as floats too), or an int (never a bool) no
    larger than the largest float."""
    if isinstance(value, float):
        return math.isfinite(value)
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _config_number(config: dict, key: str, default, kind=float):
    """config[key] (default when absent) as a float, or for kind=int an
    int; anything but a finite JSON number of that kind is a usage error."""
    value = config.get(key, default)
    if not _is_number(value):
        raise CliError(f"{key} must be a finite number, got {value!r}")
    if kind is int and not float(value).is_integer():
        raise CliError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def _config_array(config: dict, key: str, default) -> np.ndarray:
    """config[key] (default when absent), a JSON number or nested lists of
    them, as a float array; an entry that is not a JSON number is a usage
    error."""
    value = config.get(key, default)
    entries = np.asarray(value, dtype=object)  # an entry of ragged lists is a list
    if not all(map(_is_number, entries.flat)):
        raise CliError(f"{key} must be an array of finite numbers, got {value!r}")
    return entries.astype(float)


def _odd_window(w) -> int:
    """A filter window, given as an int or as a flag's text."""
    with contextlib.suppress(ValueError):
        if (n := int(w)) > 0 and n % 2 == 1:
            return n
    raise CliError(f"filter window must be a positive odd integer, got {w!r}")


def _jobs(text: str) -> int:
    """--jobs: the most pool workers a sweep may fork."""
    with contextlib.suppress(ValueError):
        if (n := int(text)) >= 1:
            return n
    raise CliError(f"want an integer >= 1, got {text!r}")


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """The package's one CSV writer: a header row, then %.17g fields."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


class _Run:
    """One command's run: its output directory, the seconds per stage (in
    the order of stages) and the files written, in the order written.  The
    directory is made at the first write, so that an input refused before
    then leaves none."""

    def __init__(self, out_dir, stages: tuple[str, ...]):
        self.out_dir = Path(out_dir)
        self.t0 = time.monotonic()
        self.stages = dict.fromkeys(stages, 0.0)
        self.outputs: list[str] = []

    @contextlib.contextmanager
    def stage(self, name: str):
        """Add the seconds spent in the with-block to the stage name."""
        t = time.monotonic()
        try:
            yield
        finally:
            self.stages[name] += time.monotonic() - t

    def write(self, name: str, writer) -> None:
        """writer(path) on the output file name (write_s), recorded as written."""
        with self.stage("write_s"):
            self.out_dir.mkdir(parents=True, exist_ok=True)
            writer(self.out_dir / name)
        self.outputs.append(name)

    def manifest(self, command: str, config: dict, seeds: dict,
                 calibrated: dict | None) -> None:
        """manifest.json: the run's inputs, the files it wrote, its wall time
        and its seconds per stage."""
        write_json(self.out_dir / "manifest.json", {
            "command": command,
            "config": config,
            "seeds": seeds,
            "calibrated": calibrated,
            "version": __version__,
            "outputs": self.outputs,
            "wall_time_s": time.monotonic() - self.t0,
            "stages": self.stages,
        })


def _report_divergence(paths: list[SdePath]) -> int:
    """Exit code 3 if any path diverged, after naming each one on stderr
    with its last finite sample, where its written trajectory ends; else 0."""
    diverged = [path for path in paths if path.diverged]
    for path in diverged:
        where = (f"after t={path.times[-1]:g}, its last finite sample" if path.times.size
                 else "at its initial state")
        print(f"path {path.path_index} (sigma={path.sigma:g}) diverged: the state went "
              f"non-finite {where}; the written trajectory ends there", file=sys.stderr)
    return 3 if diverged else 0


def _literal(s: str) -> str:
    return s.replace("\\", "\\\\").replace("'", "''")


def traj_plot_script(csv_name: str, columns: list[str], title: str) -> str:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        f"set title '{_literal(title)}'",
    ]
    plots = [f"'{_literal(csv_name)}' using 1:{i + 2} with lines"
             for i in range(len(columns))]
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    return "\n".join(lines) + "\n"


def write_sweep(run: _Run, results) -> float | None:
    """Write sweep.csv (`sigma,margin,feasible` rows, feasible as 0/1) and
    sweep.plt, which marks the first feasible sigma; return it (or None)."""
    run.write("sweep.csv", lambda path: write_csv(
        path, ["sigma", "margin", "feasible"],
        [[s for s, _ in results], [c.margin for _, c in results],
         [c.feasible for _, c in results]]))
    boundary = next((s for s, cert in results if cert.feasible), None)
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'sigma'",
        "set ylabel 'feasibility margin'",
        "set title 'certificate margin vs noise level'",
        "zero(x) = 0",
    ]
    if boundary is not None:
        lines += [
            f"set arrow from {_fmt(boundary)}, graph 0 to {_fmt(boundary)}, graph 1 nohead dashtype 2",
            f"set label 'feasibility boundary' at {_fmt(boundary)}, graph 0.95 offset 1,0",
        ]
    else:
        lines.append("# no feasible sigma on the sweep grid; no boundary to mark")
    lines.append("plot 'sweep.csv' using 1:2 with linespoints, zero(x) with lines dashtype 3 title ''")
    run.write("sweep.plt", lambda path: path.write_text("\n".join(lines) + "\n"))
    return boundary


@functools.lru_cache(maxsize=8)
def _calibrated_iapp(p: ml.MorrisLecarParams) -> float:
    """calibrate_iapp on its default grid, run once per parameter set and
    process (reproduce_all resolves the same current for three figures; a
    process sees one or a few parameter sets)."""
    return ml.calibrate_iapp(p)


def _ml_params(config: dict) -> ml.MorrisLecarParams:
    if "params" in config:
        block = config["params"]
        if not isinstance(block, dict):
            raise CliError(f"params must be a JSON object, got {block!r}")
        try:
            return ml.params_from_dict(block)
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad params block: {exc}") from exc
    return ml.MorrisLecarParams()


# the config keys each command reads; any other key is a usage error
_NEURON_KEYS = frozenset({"params", "i_app"})
_PATH_KEYS = frozenset({"model", "seed", "t_end", "dt", "record_stride", "sigma", "x0"})
SIMULATE_KEYS = {"ml": _PATH_KEYS | _NEURON_KEYS | {"noise_mode", "filter_window"},
                 "lure": _PATH_KEYS | {"system"}}
APPROXIMATE_KEYS = _NEURON_KEYS | {"seed", "width", "n_samples", "epochs", "sigma", "box"}


def _reject_unknown_keys(config: dict, known: frozenset, reader: str) -> None:
    """A usage error naming every key of config that reader does not read."""
    unknown = sorted(set(config) - known)
    if unknown:
        raise CliError(f"unknown config keys {unknown}: {reader} reads "
                       f"{', '.join(sorted(known))}")


def _load_cert_target(path, sigma=None) -> LureSystem:
    """A certification target is a bare system JSON or an embedding JSON
    (detected by the offset field), with its noise level replaced by sigma
    when one is given.  A system outside the model class is a usage error
    that names the rules it breaks; one with C^T C != I passes, and certify
    lifts it into its paper_form."""
    doc = _load_json(path)
    try:
        system = load_embedding(path).system if "offset" in doc else load_system(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad system file {path}: {exc}") from exc
    return system if sigma is None else system.with_sigma(sigma)


def _save_fit(run: _Run, report: EmbeddingReport) -> None:
    """Write the channel nets, the embedding and the training losses (one
    row per L-BFGS iteration)."""
    for name, net in zip(CHANNEL_NAMES, report.nets):
        run.write(f"net_{name}.json", functools.partial(save_net, net))
    run.write("embedding.json", functools.partial(save_embedding, report.embedding))
    epochs = np.arange(1, report.loss_histories.shape[1] + 1)
    run.write("loss.csv", lambda path: write_csv(path, ["epoch", *CHANNELS],
                                                 [epochs, *report.loss_histories]))


# ---------------------------------------------------------------------------
# commands: each cmd_* reads its arguments and config, then runs a core that
# computes its artifacts, writes them through the command's run, which times
# its stages, and prints its summary line

def _calibrate(run: _Run, config: dict, known: frozenset,
               reader: str) -> tuple[ml.MorrisLecarParams, dict]:
    """The config's neuron parameters with its i_app resolved (calibrate_s),
    and the calibrated values for the manifest.  i_app is a finite number or
    'calibrate' (the default: scan for the smallest current giving sustained
    spiking).  The params block and i_app are checked first, then any key
    outside known is a usage error (see _reject_unknown_keys), before the
    calibration runs."""
    p = _ml_params(config)
    i_app = config.get("i_app", "calibrate")
    if i_app != "calibrate" and not _is_number(i_app):
        raise CliError(f"i_app must be a finite number or 'calibrate', got {i_app!r}")
    _reject_unknown_keys(config, known, reader)
    with run.stage("calibrate_s"):
        i_app = _calibrated_iapp(p) if i_app == "calibrate" else float(i_app)
    p = p.with_iapp(i_app)
    return p, {"i_app": i_app, "v2": p.v2}


def _neuron_trajectory(run: _Run, name: str, p: ml.MorrisLecarParams, x0, sim: SimConfig,
                       sigma: float, noise_mode: str,
                       window: int | None) -> tuple[SdePath, list[str]]:
    """simulate's neuron core: one path (simulate_s), written to name
    (write_s) as t,V,N plus, when sigma > 0, V_filt,N_filt, its moving
    average over window samples.  A path that diverged before it had
    (window + 1) / 2 finite samples is too short to filter and is written
    as t,V,N.  Returns the path and the CSV header."""
    with run.stage("simulate_s"):
        path = ml.simulate_ml(p, x0, sim, sigma=sigma, noise_mode=noise_mode)
        header, cols = ["t", "V", "N"], [path.times, *path.states.T]
        if sigma > 0.0 and not (path.diverged and 2 * path.times.size < window + 1):
            header += ["V_filt", "N_filt"]
            cols += [*lowpass(path.states, window).T]
    run.write(name, lambda out: write_csv(out, header, cols))
    return path, header


def _approximate(run: _Run, p: ml.MorrisLecarParams, ecfg: EmbeddingConfig) -> EmbeddingReport:
    """approximate's core: fit and embed (fit_s), then write the fit and
    residuals.json (write_s), unless training diverged.  Returns the report."""
    with run.stage("fit_s"):
        report = build_embedding(p, ecfg)
    if report.diverged:
        print("training diverged (non-finite loss); no embedding written", file=sys.stderr)
        return report
    rng_pct = 100.0 * report.channel_rms / report.channel_range
    residuals = {
        "channel_rms": report.channel_rms.tolist(),
        "channel_range": report.channel_range.tolist(),
        "channel_rms_pct_of_range": rng_pct.tolist(),
        "recovery_rms": report.recovery_rms,
        "recovery_max": report.recovery_max,
        "final_losses": [float(h[-1]) for h in report.loss_histories],
        "state_dim": report.embedding.system.n,
        "units": int(report.embedding.system.m),
    }
    _save_fit(run, report)
    run.write("residuals.json", lambda path: write_json(path, residuals))
    print(f"embedded system: n={report.embedding.system.n}, "
          f"channel RMS % of range: {np.array2string(rng_pct, precision=3)}")
    return report


def _sweep(run: _Run, system: LureSystem, sigmas: np.ndarray,
           nu_grid: np.ndarray | None, jobs: int) -> None:
    """sweep's core: certify system at each sigma (sweep_s), then write
    sweep.csv and sweep.plt (write_s)."""
    with run.stage("sweep_s"):
        results = sigma_sweep(system, sigmas, nu_grid=nu_grid, jobs=jobs)
    boundary = write_sweep(run, results)
    if boundary is None:
        print(f"no feasible sigma among {sigmas.size} grid points "
              f"(best margin {min(c.margin for _, c in results):.6g})")
    else:
        print(f"first feasible sigma: {boundary:g}")


def _certify(run: _Run, system: LureSystem, nu_grid: np.ndarray | None = None) -> Certificate:
    """certify's core: the certificate search (certify_s), then
    certificate.json (write_s)."""
    kwargs = {} if nu_grid is None else {"nu_grid": nu_grid}
    with run.stage("certify_s"):
        cert = certify(CertProblem(system, **kwargs))
    run.write("certificate.json", functools.partial(save_certificate, cert))
    verdict = "feasible" if cert.feasible else "infeasible"
    print(f"sigma={system.sigma:g}: {verdict}, margin={cert.margin:.6g}, nu={cert.nu:g}")
    return cert


def cmd_simulate(args) -> int:
    config = _load_json(args.config)
    run = _Run(args.out, ("calibrate_s", "simulate_s", "write_s"))

    seed = args.seed if args.seed is not None else _config_number(config, "seed", 0, int)
    sim = SimConfig(t_end=_config_number(config, "t_end", 500.0),
                    dt=_config_number(config, "dt", 5e-3),
                    seed=seed,
                    record_stride=_config_number(config, "record_stride", 10, int))
    model = config.get("model", "ml")
    resolved = dict(config, seed=seed)
    calibrated = None

    if model == "ml":
        sigma = _config_number(config, "sigma", 0.0)
        if sigma < 0.0:
            raise CliError(f"sigma must be finite and >= 0, got {sigma!r}")
        noise_mode = resolved["noise_mode"] = args.noise_mode or config.get("noise_mode", "state")
        if noise_mode not in ("state", "current"):
            raise CliError(f"noise_mode must be state or current, got {noise_mode!r}")
        window = (args.filter_window if args.filter_window is not None
                  else _odd_window(_config_number(config, "filter_window", 101, int)))
        if sigma > 0.0:
            resolved["filter_window"] = window
        x0 = _config_array(config, "x0", ml.DEFAULT_INIT.tolist())
        p, calibrated = _calibrate(run, config, SIMULATE_KEYS[model], "simulate with model 'ml'")
        path, header = _neuron_trajectory(run, "traj.csv", p, x0, sim, sigma, noise_mode, window)
        title = f"membrane trajectory, sigma={sigma:g}, mode={noise_mode}"
    elif model == "lure":
        if "system" not in config:
            raise CliError("lure model config needs a 'system' file path")
        sigma = _config_number(config, "sigma", None) if "sigma" in config else None
        _reject_unknown_keys(config, SIMULATE_KEYS[model], "simulate with model 'lure'")
        system = _load_cert_target(config["system"], sigma)
        x0 = _config_array(config, "x0", np.zeros(system.n))
        with run.stage("simulate_s"):
            path = simulate(system, x0, sim)
        header = ["t"] + [f"x{i + 1}" for i in range(system.n)]
        run.write("traj.csv", lambda out: write_csv(out, header, [path.times, *path.states.T]))
        title = f"state trajectory, sigma={system.sigma:g}"
    else:
        raise CliError(f"unknown model {model!r} (want ml or lure)")

    script = traj_plot_script("traj.csv", header[1:], title)
    run.write("traj.plt", lambda out: out.write_text(script))
    run.manifest("simulate", resolved, {"simulation": seed}, calibrated)
    if _report_divergence([path]):
        return 3
    print(f"wrote {run.out_dir / 'traj.csv'} ({path.times.size} samples)")
    return 0


def cmd_approximate(args) -> int:
    config = _load_json(args.config)
    run = _Run(args.out, ("calibrate_s", "fit_s", "write_s"))

    seed = args.seed if args.seed is not None else _config_number(config, "seed", 0, int)
    defaults = EmbeddingConfig()
    fit = {field: _config_number(config, "width" if field == "hidden" else field,
                                 getattr(defaults, field), type(getattr(defaults, field)))
           for field in ("hidden", "n_samples", "epochs", "sigma")}
    box = _config_array(config, "box", defaults.box)
    if box.shape != (2, 2):
        raise CliError(f"box must be [[V_lo, N_lo], [V_hi, N_hi]], got {config['box']!r}")
    fit["box"] = tuple(map(tuple, box.tolist()))
    ecfg = EmbeddingConfig(**fit, seed=seed)  # refuses a bad value before any work
    p, calibrated = _calibrate(run, config, APPROXIMATE_KEYS, "approximate")
    if _approximate(run, p, dataclasses.replace(ecfg, i_app=calibrated["i_app"])).diverged:
        return 4
    run.manifest("approximate", dict(config, seed=seed), {"training": seed}, calibrated)
    return 0


def cmd_certify(args) -> int:
    system = _load_cert_target(args.system, args.sigma)
    run = _Run(args.out, ("certify_s", "write_s"))
    cert = _certify(run, system, args.nu_grid)
    run.manifest("certify", {"system": str(args.system), "sigma": system.sigma,
                             "nu_grid": None if args.nu_grid is None else args.nu_grid.tolist()},
                 {}, None)
    return 0 if cert.feasible else 1


def cmd_sweep(args) -> int:
    system = _load_cert_target(args.system)
    run = _Run(args.out, ("sweep_s", "write_s"))
    _sweep(run, system, args.sigma, args.nu_grid, args.jobs)
    run.manifest("sweep", {"system": str(args.system), "sigmas": args.sigma.tolist(),
                           "nu_grid": None if args.nu_grid is None else args.nu_grid.tolist()},
                 {}, None)
    return 0


# -- reproduce ---------------------------------------------------------------

FIG4_PLOT = ("set datafile separator ','\n"
             "set key autotitle columnhead\n"
             "set xlabel 't'\nset ylabel 'V (mV)'\n"
             "set title 'noise injection at sigma=0.85 vs sigma=0'\n"
             "plot 'traj_sigma0.csv' using 1:2 with lines, \\\n"
             "  'traj_sigma085.csv' using 1:2 with lines, \\\n"
             "  'traj_sigma085.csv' using 1:4 with lines lw 2\n")


def cmd_reproduce(args) -> int:
    """A figure's recipe: the cores of simulate (fig3, fig4) or of
    approximate, sweep and certify (fig5) on fixed inputs and seeds."""
    fig, seed = args.figure, args.seed
    run = _Run(Path(args.out) / fig,
               ("calibrate_s", "fit_s", "write_s", "sweep_s", "certify_s") if fig == "fig5"
               else ("calibrate_s", "simulate_s", "write_s"))
    p, calibrated = _calibrate(run, {}, frozenset(), "reproduce")

    if fig == "fig5":
        report = _approximate(run, p, EmbeddingConfig(seed=seed, i_app=calibrated["i_app"]))
        if report.diverged:
            return 4
        _sweep(run, report.embedding.system, args.sigma, None, args.jobs)
        _certify(run, report.embedding.system.with_sigma(0.85))
        run.manifest("reproduce fig5",
                     {"sigmas": args.sigma.tolist(), "embedding": "embedding.json"},
                     {"training": seed}, calibrated)
        return 0

    config = {"t_end": 500.0, "dt": 5e-3, "record_stride": 10}
    sim = SimConfig(**config, seed=seed)
    if fig == "fig3":
        trajectories, window = [("traj.csv", 0.0)], None
        config["sigma"] = 0.0
        script = traj_plot_script("traj.csv", ["V", "N"],
                                  f"unforced spiking, i_app={calibrated['i_app']:g}")
    else:
        trajectories, script = [("traj_sigma0.csv", 0.0), ("traj_sigma085.csv", 0.85)], FIG4_PLOT
        window = args.filter_window
        config.update(sigmas=[0.0, 0.85], noise_mode="state", filter_window=window)
    paths = [_neuron_trajectory(run, name, p, ml.DEFAULT_INIT, sim, sigma, "state", window)[0]
             for name, sigma in trajectories]
    run.write("traj.plt", lambda path: path.write_text(script))
    run.manifest(f"reproduce {fig}", config, {"simulation": seed}, calibrated)
    return _report_divergence(paths)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sarlab",
        description="noise-injection stability toolbox: simulate, approximate, "
                    "certify, sweep, reproduce")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, config_required=False, seed_help="master seed", seed=None, jobs=False):
        if config_required:
            sp.add_argument("--config", required=True, help="JSON config file")
        if seed_help:
            sp.add_argument("--seed", type=int, default=seed, help=seed_help)
        sp.add_argument("--out", default="out", help="output directory")
        if jobs:
            sp.add_argument("--jobs", type=_jobs, default=1,
                            help="max parallel workers, at most the usable cores (default 1)")

    sp = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    common(sp, config_required=True)
    sp.add_argument("--filter-window", type=_odd_window, default=None,
                    help="odd moving-average window for the filtered columns")
    sp.add_argument("--noise-mode", choices=("state", "current"), default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("approximate", help="train the channel nets and embed")
    common(sp, config_required=True)
    sp.set_defaults(func=cmd_approximate)

    sp = sub.add_parser("certify", help="run the stability certificate search")
    common(sp, seed_help=None)
    sp.add_argument("system", help="system or embedding JSON")
    sp.add_argument("--sigma", type=float, default=None, help="override the noise level")
    sp.add_argument("--nu-grid", type=parse_range, default=None, help="a:b:step grid in (0,1)")
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("sweep", help="certify across a noise-level grid")
    common(sp, seed_help="accepted and ignored: the certificate search is deterministic",
           jobs=True)
    sp.add_argument("system", help="system or embedding JSON")
    sp.add_argument("--sigma", type=_sigma_grid, required=True, help="a:b:step noise grid")
    sp.add_argument("--nu-grid", type=parse_range, default=None, help="a:b:step grid in (0,1)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("reproduce", help="regenerate a figure's artifacts")
    sp.set_defaults(func=cmd_reproduce)
    figures = sp.add_subparsers(dest="figure", required=True)
    seed_help = "master seed (default %(default)s)"
    common(figures.add_parser("fig3", help="calibrated noise-free spiking"),
           seed_help=seed_help, seed=0)
    fig = figures.add_parser("fig4", help="sigma=0 vs sigma=0.85 trajectories")
    common(fig, seed_help=seed_help, seed=11)
    fig.add_argument("--filter-window", type=_odd_window, default=101,
                     help="odd moving-average window (default %(default)s)")
    fig = figures.add_parser("fig5", help="embed, sweep sigma and certify sigma=0.85")
    common(fig, seed_help=seed_help, seed=7, jobs=True)
    fig.add_argument("--sigma", type=_sigma_grid, default=np.arange(0.2, 2.0001, 0.2),
                     help="sweep grid a:b:step (default 0.2:2:0.2)")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
