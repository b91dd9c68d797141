"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical failure, 4 I/O error. Given identical inputs, flags, and
seeds, every command writes byte-identical output files.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

from . import __version__
from .adiff import Tensor
from .cube import anomalies, climatology, load_cube, save_cube, split_by_years
from .errors import NumericalError, ValidationError
from .graph import export_edges, learn_adjacency, topk_sparsify
from .grid import ONI_BOX, region_nodes
from .indices import oni
from .months import format_ym, parse_ym
from .samples import make_samples
from .skill import export_predictions, forecast_index, table_from_forecasts
from .stgnn import ModelConfig, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate, write_latent_csv
from .train import TrainConfig, train, write_manifest


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_period(text: str) -> tuple[int, int]:
    try:
        y0, y1 = text.split(":")
        return int(y0), int(y1)
    except ValueError as exc:
        raise ValueError(f"expected Y0:Y1, got {text!r}") from exc


def _parse_leads(text: str) -> tuple[int, ...]:
    try:
        leads = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated leads, got {text!r}") from exc
    if not leads or any(n < 1 for n in leads):
        raise ValueError(f"leads must be positive integers, got {text!r}")
    return leads


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ensograph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ensograph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a cube file pair and summarize it")
    p.add_argument("--data", required=True, help="path to the cube's .json header")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("oni", help="compute the smoothed area-mean anomaly index")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output CSV (year,month,oni)")
    p.add_argument("--base-period", default="1871:1973", help="climatology years Y0:Y1")
    p.add_argument("--k", type=int, default=3, help="running-mean window, months")
    p.add_argument("--weighting", choices=("coslat", "uniform"), default="coslat")
    p.set_defaults(func=cmd_oni)

    p = sub.add_parser("train", help="fit the forecasting model on a period")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--train-period", default="1871:1973")
    p.add_argument("--base-period", default=None, help="climatology years (default: train period)")
    p.add_argument("--leads", default="1,3,6", help="target leads, e.g. 1,3,6")
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--weighting", choices=("coslat", "uniform"), default="coslat")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None, help="JSON file with model/train overrides")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against observations")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-period", default="1984:2020")
    p.add_argument("--leads", default="1,3,6")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--weighting", choices=("coslat", "uniform"), default="coslat")
    p.add_argument("--out", default=None, help="skill table CSV")
    p.add_argument("--export-predictions", default=None, help="pairs CSV for plotting")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("graph-export", help="dump the learned adjacency as an edge list")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_graph_export)

    p = sub.add_parser("synth", help="generate a synthetic oscillator cube")
    p.add_argument("--out", required=True, help="output stem or .json path")
    p.add_argument("--months", type=int, default=1200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--period", type=float, default=48.0)
    p.add_argument("--damping", type=float, default=0.1)
    p.add_argument("--process-noise", type=float, default=0.1)
    p.add_argument("--obs-noise", type=float, default=0.3)
    p.add_argument("--start", default="1900-01", help="first month, YYYY-MM")
    p.set_defaults(func=cmd_synth)

    return parser


def cmd_validate(args) -> int:
    cube = load_cube(args.data)
    frac = float(cube.missing.mean())
    print(f"cube: {cube.n_time} months x {cube.grid.n_lat} lats x {cube.grid.n_lon} lons")
    print(f"period: {cube.period_label()}")
    print(f"missing: {frac:.4%}")
    print("ok")
    return 0


def cmd_oni(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    cube = load_cube(args.data)
    clim = climatology(cube, _parse_period(args.base_period))
    anoms = anomalies(cube, clim)
    series = oni(anoms, k=args.k, weighting=args.weighting)
    lines = ["year,month,oni"]
    for ym, v in zip(series.months(), series.values):
        lines.append(f"{ym[0]},{ym[1]},{v:.6f}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(series)} months to {args.out}")
    return 0


def _load_overrides(path):
    if path is None:
        return {}, {}
    raw = json.loads(Path(path).read_text())
    if not (isinstance(raw, dict) and set(raw) <= {"model", "train"}):
        raise ValueError('--config must hold a JSON object with only "model" and "train" sections')
    sections = raw.get("model", {}), raw.get("train", {})
    if not all(isinstance(section, dict) for section in sections):
        raise ValueError("each --config section must be a JSON object")
    return dict(sections[0]), dict(sections[1])


def cmd_train(args) -> int:
    train_period = _parse_period(args.train_period)
    base_period = _parse_period(args.base_period) if args.base_period else train_period
    leads = _parse_leads(args.leads)
    model_over, train_over = _load_overrides(args.config)

    cube = load_cube(args.data)
    clim = climatology(cube, base_period)
    anoms = anomalies(cube, clim)
    train_anoms = split_by_years(anoms, train_period)
    nodes = region_nodes(train_anoms.grid, ONI_BOX)

    horizon = max(leads) + 1  # the smoothed lead-n forecast needs lead n+1
    model_over.setdefault("seed", args.seed)
    config = ModelConfig(
        n_nodes=len(nodes),
        horizon=horizon,
        window=args.window,
        **model_over,
    )
    for key, val in (("epochs", args.epochs), ("batch_size", args.batch_size), ("lr", args.lr)):
        if val is not None:
            train_over[key] = val
    train_over.setdefault("seed", args.seed)
    tconfig = TrainConfig(**train_over)

    T = train_anoms.n_time
    base_count = T - args.window  # window + single next month, the lead-1 pairing
    samples = make_samples(train_anoms, nodes, args.window, horizon)
    print(f"training period {train_anoms.period_label()}: {T} months, "
          f"{base_count} samples at window {args.window} (lead-1 pairing); "
          f"{len(samples)} multi-horizon windows at horizon {horizon}"
          + (f"; {samples.n_dropped} dropped for missing data" if samples.n_dropped else ""))

    result = train(config, tconfig, samples, log=print)
    save_checkpoint(
        args.out, result.params, config, result.input_scale, tconfig.seed,
        base_period=base_period, grid=train_anoms.grid, nodes=nodes,
    )
    data_meta = Path(args.data)
    write_manifest(
        str(args.out) + ".manifest.json", config, tconfig,
        [data_meta, data_meta.with_suffix(".f32")],
        extra={
            "train_period": list(train_period),
            "base_period": list(base_period),
            "leads": list(leads),
            "input_scale": result.input_scale,
            "n_samples": len(samples),
        },
    )
    print(f"final train loss {result.history.train_loss[-1]:.5f} "
          f"({result.history.seconds:.1f}s); checkpoint at {args.out}")
    return 0


def _test_anomalies(args, ckpt):
    """The test period's anomalies; the whole-record cubes are freed on return,
    so they do not stay allocated while the model runs."""
    cube = load_cube(args.data)
    if ckpt.grid != cube.grid:
        raise ValidationError("checkpoint was trained on a different grid than --data")
    anoms = anomalies(cube, climatology(cube, ckpt.base_period))
    return split_by_years(anoms, _parse_period(args.test_period))


def cmd_eval(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    ckpt = load_checkpoint(args.checkpoint)
    test_anoms = _test_anomalies(args, ckpt)
    leads = _parse_leads(args.leads)
    forecasts = forecast_index(
        ckpt.params, ckpt.config, test_anoms,
        leads=leads, k=args.k, weighting=args.weighting,
        input_scale=ckpt.input_scale,
    )
    table = table_from_forecasts(forecasts)
    print(f"test period {test_anoms.period_label()}")
    print(table)
    if args.out:
        table.write_csv(args.out)
        print(f"wrote {args.out}")
    if args.export_predictions:
        export_predictions(args.export_predictions, forecasts)
        print(f"wrote {args.export_predictions}")
    return 0


def cmd_graph_export(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    e1 = Tensor(ckpt.params["e1"].data)
    e2 = Tensor(ckpt.params["e2"].data)
    a = topk_sparsify(learn_adjacency(e1, e2, ckpt.config.graph.alpha), ckpt.config.graph.topk)
    n = export_edges(a.data, ckpt.grid, ckpt.nodes, args.out)
    print(f"wrote {n} edges to {args.out}")
    return 0


def cmd_synth(args) -> int:
    config = SynthConfig(
        months=args.months, seed=args.seed, period=args.period,
        damping=args.damping, process_noise=args.process_noise,
        obs_noise=args.obs_noise, start=parse_ym(args.start),
    )
    cube, latent = generate(config)
    meta_path = save_cube(cube, args.out)
    stem = meta_path.with_suffix("")
    latent_path = Path(f"{stem}_latent.csv")
    write_latent_csv(latent_path, latent, config.start)
    print(f"wrote {meta_path}, {meta_path.with_suffix('.f32')}, {latent_path}")
    print(f"{config.months} months from {format_ym(config.start)}, "
          f"{cube.grid.n_cells} cells, seed {config.seed}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def _pin_allocator():
    """Have glibc serve buffers up to 32 MiB from its heap and keep up to 512 MiB
    freed, so later steps reuse pages instead of faulting new ones in. Only `entry`,
    which owns the process, calls it; no output byte changes. A C library without
    `mallopt` is left alone."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD


def entry():
    _pin_allocator()
    sys.exit(main())


if __name__ == "__main__":
    entry()
