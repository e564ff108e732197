"""Batch command-line front-end.

Subcommands map one-to-one onto library operations; every run resolves its
configuration (config file overridden by flags), embeds it verbatim in the
output header, and writes deterministic JSON or CSV.  Exit codes: 0 success,
2 usage or other library error, 3 precision/depth/horizon error.

The numpy side (``dimension``, ``hausdorff``, ``markov``) is imported inside
the commands that run it, so the others never load numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import mpmath as mp

from . import __version__
from .errors import (CantorExtError, DepthError, HorizonError,
                     ParameterError, PrecisionError, ValidationError)
from .extension import ExtensionOperator, dn_experiment
from .gamma import build_model, classify_ep, family_spec, profile
from .geometry import build_tree, select_nodes, verify_geometry
from .logreal import ln_double

BUDGET_ERRORS = (DepthError, PrecisionError, HorizonError)


def _config_flags(path: str) -> list:
    """The ``key = value`` lines of a config file as ``--key=value`` flags."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def resolve_config(parser: argparse.ArgumentParser, argv: list) -> dict:
    """The run's configuration from ``[command, *flags]``.

    The ``--config`` file's lines become flags placed between the command
    and the command line's own flags, and all are parsed in one pass: each
    file value is typed like its flag, an unknown key is a usage error, and
    a command-line flag wins because it comes last.
    """
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(argv[:1] + _config_flags(args.config)
                                 + argv[1:])
    cfg = vars(args)
    cfg["config_file"] = cfg.pop("config")
    return cfg


def _finite(v):
    """``v`` with every non-finite float replaced by None, so that the JSON
    body is strict (``ln_err`` is -inf where W reproduces f exactly)."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return v


def _emit(config: dict, data, csv_rows: list | None = None,
          csv_header: list | None = None) -> None:
    """Write the payload to ``--out`` or stdout in ``--format``: JSON carries
    data, CSV carries rows + config preamble.  Without a CSV table, JSON."""
    out = config.get("out")
    fmt = config.get("format", "json") if csv_header else "json"
    clean_cfg = {k: v for k, v in sorted(config.items())
                 if isinstance(v, (str, int, float, bool, type(None), list))}
    if fmt == "json":
        payload = {"version": __version__, "config": clean_cfg, "data": data}
        text = json.dumps(_finite(payload), sort_keys=True, indent=2,
                          allow_nan=False)
    else:
        buf = io.StringIO()
        for k, v in sorted(clean_cfg.items()):
            buf.write(f"# {k} = {v}\n")
        buf.write(f"# version = {__version__}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if fmt == "csv" else text + "\n")
    else:
        sys.stdout.write(text if fmt == "csv" else text + "\n")


def _model_from(cfg: dict):
    """The run's gamma model: its family gets each parameter it declares
    that the run sets (``build_model`` converts each to its declared type)."""
    family = cfg.get("family") or "example1"
    kw = {name: cfg[name] for name in family_spec(family).params
          if cfg.get(name) is not None}
    return build_model(family, k_max=cfg["k_max"], **kw)


def _decimal(x, digits: int = 40) -> str:
    return mp.nstr(x, digits, strip_zeros=False)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gamma(cfg: dict) -> None:
    model = _model_from(cfg)
    prof = profile(model)
    verdict = classify_ep(model, prof)
    data = {
        "model": model.describe(),
        "B": list(prof.B[1:]),
        "beta": list(prof.beta[1:]),
        "robin_partial": list(prof.robin_partial[1:]),
        "polar": prof.polar_verdict,
        "ep": verdict.ep,
        "ep_rule": verdict.rule,
    }
    rows = [(k, prof.B[k], prof.beta[k], prof.robin_partial[k])
            for k in range(1, model.k_max + 1)]
    _emit(cfg, data, rows, ["k", "B_k", "beta_k", "robin_partial"])


def cmd_geometry(cfg: dict) -> None:
    model = _model_from(cfg)
    tree = build_tree(model, depth=cfg.get("depth"), bits=cfg["bits"])
    rep = verify_geometry(tree)
    with mp.workprec(tree.bits):
        intervals = [{
            "level": iv.level, "index": iv.index,
            "left": _decimal(iv.left), "right": _decimal(iv.right),
            "ln_length": iv.ln_length,
        } for lvl in tree.levels for iv in lvl]
    data = {
        "depth": tree.depth, "bits": tree.bits, "all_ok": rep.all_ok,
        "levels": [vars(l) for l in rep.levels],
        "intervals": intervals,
    }
    rows = [(d["level"], d["index"], d["left"], d["right"], d["ln_length"])
            for d in intervals]
    _emit(cfg, data, rows, ["level", "index", "left", "right", "ln_length"])


def cmd_nodes(cfg: dict) -> None:
    model = _model_from(cfg)
    j, s = (int(v) for v in str(cfg["interval"]).split(","))
    N = cfg["N"]
    tree = build_tree(model, depth=cfg.get("depth"), bits=cfg["bits"])
    ns = select_nodes(tree, (j, s), N)
    with mp.workprec(tree.bits):
        data = [{"order": i + 1, "x": _decimal(n.x), "type": n.type}
                for i, n in enumerate(ns.nodes)]
    _emit(cfg, {"interval": [j, s], "nodes": data},
          [(d["order"], d["x"], d["type"]) for d in data], ["order", "x", "type"])


def cmd_extend(cfg: dict) -> None:
    if cfg["N"] < 1:
        raise ParameterError("extend needs --N >= 1 points")
    model = _model_from(cfg)
    tree = build_tree(model, depth=cfg.get("depth"), bits=cfg["bits"])
    s_max = cfg["s_max"]
    op = ExtensionOperator(tree, s_max=s_max)
    q = cfg["q"]
    fns = {"one": lambda x: mp.mpf(1), "identity": lambda x: x,
           "square": lambda x: x * x, "sin": mp.sin}
    norm_q = {"one": 1.0, "identity": 1.0, "square": 2.0, "sin": 2.0}
    per_f = {name: [] for name in fns}
    with mp.workprec(tree.bits):
        xs = [iv.right for iv in tree.levels[min(tree.depth, s_max + 2)]]
        xs = xs[:cfg["N"]]
        # every function at one point before the next: they share its state
        for x in xs:
            for name, f in fns.items():
                out = op.evaluate(f, x, norm_q=norm_q[name], q=q)
                err = abs(out.value - f(x))
                per_f[name].append((name, _decimal(x, 30),
                                    _decimal(out.value, 30), _decimal(f(x), 30),
                                    ln_double(err),
                                    out.certified_bound.ln_mag))
    rows = [r for name in fns for r in per_f[name]]
    data = [{"f": r[0], "x": r[1], "W": r[2], "fx": r[3], "ln_err": r[4],
             "ln_bound": r[5]} for r in rows]
    _emit(cfg, data, rows, ["f", "x", "W", "f(x)", "ln_err", "ln_bound"])


def cmd_dn(cfg: dict) -> None:
    model = _model_from(cfg)
    r_list = [int(v) for v in str(cfg["r"]).split(",")]
    s_list = [int(v) for v in str(cfg["s"]).split(",")]
    rep = dn_experiment(model, eps=cfg["epsilon"], m=cfg["m_window"],
                        r_list=r_list, s_list=s_list)
    rows = [(r.s, r.n, r.r, r.brace, r.threshold, r.fires, r.ln_bound_scaled,
             r.ln_bound_full) for r in rep.rows]
    data = {"diverges": rep.diverges, "rows": [vars(r) for r in rep.rows]}
    _emit(cfg, data, rows, ["s", "n", "r", "brace", "threshold", "fires",
                            "ln_bound_scaled", "ln_bound_full"])


def _dimension_from(cfg: dict):
    from .dimension import LogPower
    m = 3 if cfg["m"] is None else cfg["m"]
    return LogPower(cfg["alpha0"], cfg["eps_sign"], m=m)


def cmd_hausdorff(cfg: dict) -> None:
    from .dimension import EtaProfile
    from .hausdorff import (TreeAtoms, content_dp, ep_root_test,
                            lambda_level_estimate)
    model = _model_from(cfg)
    tree = build_tree(model, depth=cfg.get("depth"), bits=cfg["bits"])
    h = EtaProfile(model)
    sums = [lambda_level_estimate(tree, h, k) for k in range(1, tree.depth + 1)]
    content = content_dp(TreeAtoms(tree), h)
    rt = ep_root_test(_dimension_from(cfg), range(5, cfg["k_max"] + 1, 5))
    data = {
        "level_sums": [vars(s) for s in sums],
        "content_deepest": content.value,
        "covering_runs": content.runs,
        "root_test": {"a_values": rt.a_values, "verdict": rt.verdict,
                      "analytic_limit": rt.analytic_limit},
    }
    rows = [(s.level, s.value, s.upper) for s in sums]
    _emit(cfg, data, rows, ["level", "sum_h", "upper"])


def cmd_density(cfg: dict) -> None:
    from .hausdorff import (IslandFamily, density_scan_islands,
                            density_scan_tree, q_rule_constant, q_rule_log)
    if cfg["k_range"] is None:
        raise ParameterError("density needs --k-range: the levels to scan "
                             "depend on the family")
    h = _dimension_from(cfg)
    ks = [int(v) for v in str(cfg["k_range"]).split(",")]
    if cfg.get("family") == "islands":
        Q = cfg.get("Q")
        rule = q_rule_log() if str(Q) == "log" else q_rule_constant(float(Q or 2.0))
        fam = IslandFamily(rule, k_max=cfg["k_max"])
        table = density_scan_islands(fam, h, ks, keep_rows=True)
    else:
        model = _model_from(cfg)
        tree = build_tree(model, depth=cfg.get("depth"), bits=cfg["bits"])
        table = density_scan_tree(tree, h, ks, keep_rows=True)
    ratio_at = {p.ln_inv_r: p.ratio for p in table.per_r}
    rows = [(r.ln_inv_r, r.x_label, r.phi, ratio_at.get(r.ln_inv_r))
            for r in table.rows]
    data = {
        "per_r": [vars(p) for p in table.per_r],
        "running_min": table.running_min(),
        "liminf_estimate": table.liminf_estimate,
        "analytic_limit": table.analytic_limit,
    }
    _emit(cfg, data, rows, ["ln_inv_r", "x", "phi", "ratio_at_r"])


def cmd_markov(cfg: dict) -> None:
    from .markov import markov_bounds, markov_numeric, tree_atom_bounds
    model = _model_from(cfg)
    tree = build_tree(model, depth=cfg["depth"], bits=cfg["bits"])
    atoms = tree_atom_bounds(tree)
    ns = [int(v) for v in str(cfg["n"]).split(",")]
    rows, data = [], []
    for n in ns:
        bounds = markov_bounds(model, n)
        est = markov_numeric(atoms, n, points_per_atom=cfg["N"],
                             seed=cfg["seed"])
        rows.append((n, bounds.lower.ln_mag,
                     bounds.point.ln_mag if bounds.point else "",
                     bounds.upper.ln_mag, est.value))
        data.append({"n": n, "ln_lower": bounds.lower.ln_mag,
                     "ln_point": bounds.point.ln_mag if bounds.point else None,
                     "ln_upper": bounds.upper.ln_mag, "numeric": est.value,
                     "stalled": est.stalled})
    _emit(cfg, data, rows, ["n", "ln_lower", "ln_point", "ln_upper", "numeric"])


def cmd_examples(cfg: dict) -> None:
    """Reproduce the worked examples at desk scale in one run."""
    from .dimension import EtaProfile, LogPower
    from .hausdorff import (IslandFamily, compare_dimension_functions,
                            density_scan_islands, density_scan_tree,
                            q_rule_constant, q_rule_log)
    from .markov import ratio_table
    out = {}
    # constant weights: polar, satisfies the uniform condition
    m1 = build_model("example1", k_max=40, B=1.0)
    p1 = profile(m1)
    out["example1"] = {"B_head": list(p1.B[1:9]), "polar": p1.polar_verdict,
                       "ep": classify_ep(m1, p1).ep}
    # dip family: the negation witness fires from j = 3
    m2 = build_model("example2", k_max=40, variant="A")
    kj = m2.meta["kj"]
    pairs = [(2 ** (kj[j] - kj[j - 1]), kj[j - 1]) for j in (2, 3, 4, 5)]
    rep = dn_experiment(m2, eps=0.25, m=0, r_list=[r for r, _ in pairs],
                        s_list=[s for _, s in pairs])
    out["example2"] = {"ep": classify_ep(m2).ep, "diverges": rep.diverges,
                       "fires": [r.fires for r in rep.rows]}
    # iterated-log weights: subexponential growth
    m3 = build_model("example3", k_max=60, m=3)
    out["example3"] = {"ep": classify_ep(m3).ep,
                       "onset": m3.meta["k_start"]}
    # order comparison: eta of the constant-weight set ~ logarithmic measure,
    # eta of the dip family strictly smaller
    h0 = LogPower(1.0)
    h1 = EtaProfile(m1)
    m2b = build_model("example2", k_max=38, variant="B")
    h2 = EtaProfile(m2b)
    p2b = profile(m2b)
    grid1 = [float(p1.ln_inv_delta(k)) * 0.999 for k in range(3, 24)]
    grid2 = [float(p2b.ln_inv_delta(k)) * 0.999 for k in range(4, 38)]
    out["order_pair"] = {
        "h1_vs_h0": compare_dimension_functions(h1, h0, grid1).classification,
        "h2_vs_h0": compare_dimension_functions(h2, h0, grid2).classification,
        "ep_K1": classify_ep(m1).ep, "ep_K2": classify_ep(m2b).ep,
    }
    # island densities: bounded exponents keep the density positive
    h_half = LogPower(0.5)
    fam_b = IslandFamily(q_rule_constant(2.0), k_max=120)
    tb = density_scan_islands(fam_b, h_half, [10, 30, 60, 90, 119])
    fam_u = IslandFamily(q_rule_log(), k_max=120)
    tu = density_scan_islands(fam_u, h_half, [10, 30, 60, 90, 119])
    out["islands"] = {
        "bounded_Q_liminf": tb.liminf_estimate, "bounded_Q_limit": 2 ** -0.5,
        "unbounded_Q_ratios": [p.ratio for p in tu.per_r],
    }
    # equal densities, opposite extension verdicts
    scans = {}
    for b, bits, depth in ((2.0, 512, 6), (3.0, 1024, 5)):
        md = build_model("delta_form", k_max=12, b=b)
        tr = build_tree(md, depth=depth, bits=bits)
        tbl = density_scan_tree(tr, h_half, range(2, depth + 1))
        scans[str(b)] = {"liminf": tbl.liminf_estimate, "limit": b ** -0.5,
                         "ep": classify_ep(md).ep}
    out["regular_densities"] = scans
    # the Markov crossover table
    mm1 = build_model("example1", k_max=30, B=2.0)
    table = ratio_table(mm1, build_model("example2", k_max=30), range(2, 24))
    out["markov_crossover"] = {
        "rows": [(r.k, r.j, r.branch, r.ln_bound) for r in table.rows],
        "decreasing_negative_from": table.decreasing_negative_from,
    }
    _emit(cfg, out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorext",
        description="Cantor-type sets: geometry, extension operator, contents, Markov factors")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--family", default=None)
        p.add_argument("--B", type=float, default=None)
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--b", type=float, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--variant", default=None)
        p.add_argument("--gammas", default=None)
        p.add_argument("--k-max", dest="k_max", type=int, default=40)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--bits", type=int, default=512)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--interval", default="1,0")
        p.add_argument("--epsilon", type=float, default=0.25)
        p.add_argument("--m-window", dest="m_window", type=int, default=0)
        p.add_argument("--q", type=int, default=5)
        p.add_argument("--r", default=None)
        p.add_argument("--s", default=None)
        p.add_argument("--s-max", dest="s_max", type=int, default=3)
        p.add_argument("--n", default=None)
        p.add_argument("--k-range", dest="k_range", default=None)
        p.add_argument("--alpha0", type=float, default=0.5)
        p.add_argument("--eps-sign", dest="eps_sign", type=int, default=0)
        p.add_argument("--Q", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None)

    # each subcommand's handler, and the defaults that depend on it
    handlers = {
        "gamma": (cmd_gamma, {}), "geometry": (cmd_geometry, {}),
        "nodes": (cmd_nodes, {"N": 8}), "extend": (cmd_extend, {"N": 16}),
        "dn": (cmd_dn, {"r": "32,128", "s": "4,9"}),
        "hausdorff": (cmd_hausdorff, {}), "density": (cmd_density, {}),
        "markov": (cmd_markov, {"N": 24, "n": "2,4,8", "depth": 3}),
        "examples": (cmd_examples, {}),
    }
    for name, (fn, defaults) in handlers.items():
        # no prefix matching: a config key `k_ma` is unknown, not --k-max
        p = sub.add_parser(name, allow_abbrev=False)
        common(p)
        p.set_defaults(func=fn, **defaults)
    return parser


def main(argv=None) -> int:
    # importing numpy starts OpenBLAS's pool, a spinning thread per further
    # CPU, and no command calls BLAS: one thread, unless the caller set it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        cfg = resolve_config(parser, argv)
        cfg.pop("func")(cfg)
    except BUDGET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CantorExtError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
