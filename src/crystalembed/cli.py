"""Command-line entry point.

Six subcommands: ingest, pretrain, extract, downstream, sweep, project.
Each only computes, writes its own outputs and returns its exit code.
`main` owns the rest of the run: it merges the config (defaults, then the
--config file, then flags) and, once the subcommand returns, writes
`<command>_config.json` next to the outputs: the command, every parsed
input but --out and --config, and the merged config. Any run is
reproducible from that file, and a failed run leaves none behind.

Exit codes: 0 success, 1 per-file ingest failures, else the code `errors`
gives the fault's class; 4 marks any other exception, a bug, which `entry`
reports with its traceback (`main` lets it propagate).
"""

import argparse
from dataclasses import fields
import functools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .downstream import (DownstreamConfig, label_fraction_sweep,
                         render_sweep_table, train_supervised)
from .elements import category_of, z_to_symbol
from .embeddings import (format_float17, load_table, project_2d,
                         save_table_csv, save_table_json)
from .errors import (CrystalEmbedError, NumericsError, ParseError,
                     ValidationError, reading)
from .periodic_graph import (NUM_MULTIPLICITY_CLASSES, build_periodic_graph,
                             multiplicity_targets)
from .structures import load_cif, load_jsonl, save_jsonl
from .training import (PretrainConfig, extract_embeddings, load_state,
                       pretrain)

EXIT_OK = 0
EXIT_INGEST = 1
EXIT_VALIDATION = 2
EXIT_NUMERICS = 3
EXIT_INTERNAL = 4


def _float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _load_config_file(path) -> dict:
    with reading(path), open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    # Accept an effective-config file written by an earlier run as-is.
    if "command" in data and isinstance(data.get("config"), dict):
        return data["config"]
    return data


def _merge_config(cls, path, flags: dict):
    """Defaults, then the --config file, then every config flag given."""
    data = {} if path is None else _load_config_file(path)
    data.update({name: v for name, v in flags.items() if v is not None})
    return cls.from_dict(data)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_structures(path):
    structures = load_jsonl(path)
    if not structures:
        raise ValidationError(f"{path}: no structures found")
    return structures


# -- subcommands ---------------------------------------------------------

def cmd_ingest(args, cfg) -> int:
    out_dir = Path(args.out)
    structures, failures = [], []
    for raw in args.inputs:
        path = Path(raw)
        try:  # each reader's errors name the file
            if path.suffix.lower() == ".cif":
                structures.append(load_cif(path))
            elif path.suffix.lower() == ".jsonl":
                structures.extend(load_jsonl(path))
            else:
                raise ParseError(f"{path}: unsupported input extension "
                                 f"{path.suffix!r}")
        except CrystalEmbedError as exc:
            failures.append(str(exc))
    for message in failures:
        print(f"ingest failed: {message}", file=sys.stderr)
    if not structures and not failures:
        raise ValidationError("no structures in the given inputs")

    site_hist: dict = {}
    edge_counts = []
    mult_hist = np.zeros(NUM_MULTIPLICITY_CLASSES, dtype=np.int64)
    for s in structures:
        g = build_periodic_graph(s, args.cutoff)
        key = str(g.num_nodes)
        site_hist[key] = site_hist.get(key, 0) + 1
        edge_counts.append(g.num_edges)
        # classes is symmetric: its upper triangle counts each pair once
        classes = multiplicity_targets(g).classes
        mult_hist += np.bincount(classes[np.triu_indices(g.num_nodes)],
                                 minlength=NUM_MULTIPLICITY_CLASSES)

    out_dir.mkdir(parents=True, exist_ok=True)
    save_jsonl(out_dir / "dataset.jsonl", structures)
    stats = {
        "num_structures": len(structures),
        "num_failed": len(failures),
        "site_count_histogram": dict(sorted(site_hist.items())),
        "edge_counts": {
            "min": int(min(edge_counts)) if edge_counts else 0,
            "max": int(max(edge_counts)) if edge_counts else 0,
            "mean": float(np.mean(edge_counts)) if edge_counts else 0.0,
        },
        "multiplicity_histogram": {
            str(c): int(n) for c, n in enumerate(mult_hist)
        },
    }
    _write_json(out_dir / "stats.json", stats)
    print(f"ingested {len(structures)} structures "
          f"({len(failures)} failed) -> {out_dir / 'dataset.jsonl'}")
    return EXIT_INGEST if failures else EXIT_OK


def cmd_pretrain(args, cfg) -> int:
    structures = _load_structures(args.data)
    graphs = [build_periodic_graph(s, cfg.cutoff) for s in structures]
    out_dir = Path(args.out)
    result = pretrain(graphs, cfg, out_dir, resume_from=args.resume)
    last = result.history[-1]
    print(f"pretrained {last['epoch']} epochs on {len(graphs)} graphs: "
          f"L_total={last['L_total']:.6f} -> {result.final_path}")
    return EXIT_OK


def cmd_extract(args, cfg) -> int:
    model, _, model_cfg, _, _ = load_state(args.checkpoint)
    structures = _load_structures(args.data)
    graphs = [build_periodic_graph(s, model_cfg.cutoff) for s in structures]
    table = extract_embeddings(model, graphs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"embeddings.{args.format}"
    if args.format == "csv":
        save_table_csv(table, out_path)
    else:
        save_table_json(table, out_path)
    print(f"extracted {int(table.present.sum())} element embeddings "
          f"(dim {table.dim}) -> {out_path}")
    return EXIT_OK


def cmd_downstream(args, cfg) -> int:
    if cfg.mode == "baseline" and args.table is not None:
        raise ValidationError("baseline mode reads no table: drop --table")
    table = None if args.table is None else load_table(args.table)
    structures = _load_structures(args.data)
    out_dir = Path(args.out)
    _, report = train_supervised(structures, cfg, table)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report.to_dict())
    print(f"{cfg.mode} fraction={cfg.label_fraction} seed={cfg.seed}: "
          f"test MAE {report.mean:.6f} -> {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_sweep(args, cfg) -> int:
    table = load_table(args.table)
    structures = _load_structures(args.data)
    out_dir = Path(args.out)
    report = label_fraction_sweep(structures, cfg, table,
                                  fractions=tuple(args.fractions),
                                  n_runs=args.runs, base_seed=args.base_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "report.json", report)
    text = render_sweep_table(report)
    (out_dir / "table.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_project(args, cfg) -> int:
    table = load_table(args.table)
    zs, coords = project_2d(table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "projection.csv"
    lines = ["Z,symbol,category,x,y"]
    for z, (x, y) in zip(zs, coords):
        lines.append(",".join([str(int(z)), z_to_symbol(int(z)),
                               category_of(int(z)), format_float17(x),
                               format_float17(y)]))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"projected {len(zs)} elements -> {out_path}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------

def _add_config_flags(p, cls, skip=()):
    """--config plus one --field-name flag per config field, typed by the
    field default; main merges them into a cls, which checks the values."""
    p.add_argument("--config", help="JSON config file")
    for f in fields(cls):
        if f.name not in skip:
            kind = _float_list if isinstance(f.default, tuple) else type(f.default)
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           type=kind)
    p.set_defaults(config_cls=cls)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process."""
    parser = argparse.ArgumentParser(
        prog="crystalembed",
        description="Self-supervised pretraining of per-element embeddings "
                    "from periodic crystal graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse CIF/JSONL files into a dataset")
    p.add_argument("inputs", nargs="+", help="input .cif or .jsonl files")
    p.add_argument("--cutoff", type=float, default=5.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pretrain", help="run dual-branch pretraining")
    p.add_argument("--data", required=True, help="dataset JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    _add_config_flags(p, PretrainConfig)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("extract", help="export per-element embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("downstream", help="one supervised regression run")
    p.add_argument("--data", required=True, help="labeled dataset JSONL")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--table", help="embedding table CSV/JSON")
    _add_config_flags(p, DownstreamConfig)
    p.set_defaults(func=cmd_downstream)

    p = sub.add_parser("sweep", help="label-fraction sweep of both modes")
    p.add_argument("--data", required=True, help="labeled dataset JSONL")
    p.add_argument("--table", required=True, help="embedding table CSV/JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fractions", type=_float_list, default=[1.0, 0.5, 0.25])
    p.add_argument("--runs", type=int, default=4)
    p.add_argument("--base-seed", dest="base_seed", type=int, default=0)
    # the sweep sets mode, label fraction and seed of every run itself
    _add_config_flags(p, DownstreamConfig,
                      skip=("mode", "label_fraction", "seed"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("project", help="2-D PCA export of an embedding table")
    p.add_argument("--table", required=True, help="embedding table CSV/JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_project)

    return parser


def main(argv=None) -> int:
    """Parse, merge the config, run the subcommand and, once it returns,
    write `<command>_config.json` into its --out directory."""
    args = build_parser().parse_args(argv)
    inputs = {name: value for name, value in vars(args).items()
              if name not in ("func", "config_cls", "out", "config")}
    cls = getattr(args, "config_cls", None)
    flags = {} if cls is None else {f.name: inputs.pop(f.name)
                                    for f in fields(cls) if f.name in inputs}
    try:
        cfg = None if cls is None else _merge_config(cls, args.config, flags)
        code = args.func(args, cfg)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except (CrystalEmbedError, MemoryError) as exc:  # NumPy's _ArrayMemoryError too
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    if cfg is not None:
        inputs["config"] = cfg.to_dict()
    _write_json(Path(args.out) / f"{args.command}_config.json", inputs)
    return code


def entry() -> None:
    """The console script: main's exit code, or EXIT_INTERNAL after printing
    the traceback of an exception main does not map to a code."""
    try:
        code = main()
    except Exception:
        traceback.print_exc()
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    entry()
