"""Command-line interface.

Subcommands: ``validate`` / ``convergence`` / ``clt`` run configuration-driven
studies; ``forward`` and ``backward`` are direct single-run commands writing
path CSVs.  All randomness flows from the explicit seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .backward import min_block_paths, solve_bsde_n, solve_mfbsde
from .forward import simulate_blocks, solve_limit_forward, solve_sde_n
from .harness import (
    _PATH_HEADER,
    ConfigError,
    _path_rows,
    _write_csv,
    builds_value_law,
    emit_report,
    model_from_block,
    parse_config,
    run_clt_study,
    run_convergence_study,
    study_law,
)
from .noise import StreamKey, TimeGrid


def _read_input(path: str, what: str) -> str:
    """The text of an input file; one that cannot be read is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {what} {path}: {exc.strerror}"]) from None


def _read_json_file(path: str, what: str):
    """The parsed JSON document of a file; a file that is not JSON is a ConfigError."""
    text = _read_input(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid {what}: not valid JSON: {exc}"]) from None


def _load_model_block(path: str):
    """The model block of a JSON file: its "model" object, else the whole document."""
    doc = _read_json_file(path, "model block")
    if isinstance(doc, dict) and isinstance(doc.get("model"), dict):
        return doc["model"]
    return doc


def _cmd_validate(args) -> int:
    cfg = parse_config(_read_input(args.config, "config file"))
    print(f"ok: {cfg.digest()} ({cfg.study['kind']} study, seed {cfg.study['seed']})")
    return 0


def _cmd_convergence(args) -> int:
    text = _read_input(args.config, "config file")
    cfg = parse_config(text, "convergence", seed=args.seed, out=args.out)
    report = run_convergence_study(cfg)
    written = emit_report(report, cfg.out_dir)
    for v in report.verdicts:
        status = "pass" if v["passed"] else "FAIL"
        print(f"[{status}] {v['criterion']}: {v['details']}")
    print("wrote:", ", ".join(written))
    return 0 if all(v["passed"] for v in report.verdicts) else 2


def _cmd_clt(args) -> int:
    if args.config is not None:
        clash = [f for f in ("model", "lattice") if getattr(args, f) is not None]
        if clash:
            raise ConfigError([f"--{f} belongs to direct mode, not to --config" for f in clash])
        text = _read_input(args.config, "config file")
    else:
        # direct mode: build a study document from the model block
        missing = [f for f in ("model", "n", "seed") if getattr(args, f) is None]
        if missing:
            raise ConfigError([f"direct mode needs --{f}" for f in missing])
        doc = {"model": _load_model_block(args.model), "study": {"kind": "clt"}}
        if args.lattice is not None:
            lat = _read_json_file(args.lattice, "lattice file")
            if not isinstance(lat, dict):
                raise ConfigError(['the lattice file must be an object {"times": [...]}'])
            unknown = [f"unknown lattice key {key!r}" for key in lat if key != "times"]
            if unknown:
                raise ConfigError(unknown)
            if "times" in lat:
                doc["study"]["lattice_times"] = lat["times"]
        text = json.dumps(doc)
    cfg = parse_config(text, "clt", seed=args.seed, n=args.n, reps=args.reps, out=args.out)
    report = run_clt_study(cfg)
    written = emit_report(report, cfg.out_dir)
    for v in report.verdicts:
        status = "pass" if v["passed"] else "FAIL"
        print(f"[{status}] {v['criterion']}")
    print("wrote:", ", ".join(written))
    return 0 if all(v["passed"] for v in report.verdicts) else 2


def _direct_model(args, least: dict):
    """The model of a direct command's ``--model`` file and the violations
    found: a bad model block, then each flag of ``least`` below its value."""
    violations = [
        f"--{flag.replace('_', '-')} must be an integer >= {low}, got {getattr(args, flag)}"
        for flag, low in least.items()
        if getattr(args, flag) < low
    ]
    try:
        return model_from_block(_load_model_block(args.model)), violations
    except ConfigError as exc:
        return None, exc.violations + violations


def _cmd_forward(args) -> int:
    model, violations = _direct_model(args, {"n": 1, "steps": 1, "reps": 0, "env_cloud": 2})
    if violations:
        raise ConfigError(violations)
    grid = TimeGrid(model.horizon, args.steps)
    root = StreamKey(seed=args.seed)
    law = solve_limit_forward(model, grid, args.env_cloud, root.child("law", 0))
    paths, _ = solve_sde_n(law, args.n, root.child("w", 0), root.child("envs", 0), args.reps)
    _write_csv(args.out, _PATH_HEADER, _path_rows(grid, paths))
    print(
        f"wrote {args.out}: {args.reps} replications, N={args.n}, "
        f"environments from the {law.kind.replace('_', '-')} limit law"
    )
    return 0


def _read_paths_csv(path: str, dim: int):
    """The nodes and (R, n+1, d) values of a forward path CSV; any fault of
    the file is a ConfigError."""
    rows = _read_input(path, "--paths file").strip().splitlines()
    if not rows or rows[0] != ",".join(_PATH_HEADER):
        raise ConfigError([f"--paths: {path} is not a forward path CSV"])
    data: dict[int, dict[float, dict[int, float]]] = {}
    for number, line in enumerate(rows[1:], start=2):
        try:
            r, t, c, v = line.split(",")
            r, t, c, v = int(r), float(t), int(c), float(v)
        except ValueError:
            raise ConfigError([f"--paths: line {number} is not rep,t,coord,value: {line!r}"]) from None
        if not 0 <= c < dim:
            raise ConfigError([f"--paths: line {number} has coordinate {c}, not below dimension {dim}"])
        data.setdefault(r, {}).setdefault(t, {})[c] = v
    if not data:
        raise ConfigError([f"--paths: {path} has no path rows"])
    first = min(data)
    nodes = sorted(data[first])
    for r, path_r in data.items():
        if sorted(path_r) != nodes or any(len(coords) != dim for coords in path_r.values()):
            raise ConfigError([
                f"--paths: replication {r} does not have the nodes and {dim} coordinates "
                f"of replication {first}"
            ])
    values = np.array([[[data[r][t][c] for c in range(dim)] for t in nodes] for r in sorted(data)])
    return nodes, values


def _invert_euler_increments(law, values):
    """Recover Brownian increments from limit-dynamics paths on the law's
    grid; a singular diffusion mean is a ConfigError naming its first node."""
    grid = law.grid
    R, n1, d = values.shape
    drift, diffusion = law.euler_coefficients()
    dw = np.empty((R, grid.steps, d))
    for i in range(grid.steps):
        x = values[None, :, i, :]
        resid = values[None, :, i + 1, :] - x - drift(x, i) * grid.h
        try:
            dw[:, i, :] = np.linalg.solve(diffusion(x, i), resid[..., None])[0, ..., 0]
        except np.linalg.LinAlgError:
            t = grid.nodes[i]
            raise ConfigError([f"--paths: the diffusion mean is singular at node {i} (t={t:.6g})"]) from None
    return dw


def _backward_setup(args):
    """The model and the ``--paths`` file's values (None for fresh paths) of
    a backward command; raises ConfigError before any compute."""
    model, violations = _direct_model(args, {"steps": 1, "reps": 1, "degree": 0, "env_cloud": 2})
    limit_mode = args.n == "limit"
    if not (limit_mode or args.n.isdigit() and int(args.n) >= 1):
        violations.append(f"--n must be 'limit' or an integer >= 1, got {args.n!r}")
    values = None
    bad_file = False
    if args.paths != "fresh" and not limit_mode:
        violations.append(
            "--paths needs --n limit: externally supplied paths carry no environment draws"
        )
    elif args.paths != "fresh" and model is not None:
        try:
            nodes, values = _read_paths_csv(args.paths, model.dim)
        except ConfigError as exc:
            violations += exc.violations
            bad_file = True
        if values is not None and len(nodes) != args.steps + 1:
            violations.append(f"--paths file has {len(nodes) - 1} steps, expected {args.steps}")
        elif values is not None and args.steps >= 1:
            grid = TimeGrid(model.horizon, args.steps)
            # within `TimeGrid.node_at`'s tolerance of the node of its rank
            if np.any(np.abs(np.asarray(nodes) - grid.nodes) > 1e-9):
                violations.append(f"--paths file's t values are not the nodes of {grid}")
    if model is not None and args.degree >= 0:
        # paths per regression block: file rows, fresh limit paths or inner paths
        if values is not None:
            flag, paths = "--paths", len(values)
        else:
            flag, paths = ("--reps", args.reps) if limit_mode else ("--inner", args.inner)
        need = min_block_paths(model.dim, args.degree)
        if paths < need and not bad_file:
            violations.append(
                f"{flag} must give at least 10 * basis size = {need} paths per block, got {paths}"
            )
        # the value law is regressed as one block of --env-cloud paths
        if builds_value_law(model, not limit_mode) and args.env_cloud < need:
            violations.append(
                f"--env-cloud must give at least 10 * basis size = {need} paths "
                f"for the value law, got {args.env_cloud}"
            )
    if violations:
        raise ConfigError(violations)
    return model, values


def _cmd_backward(args) -> int:
    model, values = _backward_setup(args)
    grid = TimeGrid(model.horizon, args.steps)
    root = StreamKey(seed=args.seed)
    limit_mode = args.n == "limit"
    law = study_law(model, grid, args.env_cloud, args.degree, root, not limit_mode)
    if limit_mode:
        if values is not None:
            x_paths = values[None]
            dw = _invert_euler_increments(law, values)[None]
        else:
            # one block of limit paths on the stream the N-mode's block 0 uses
            dw, x_paths = law.paths(root.child("w", 0), range(1), args.reps)
        sol = solve_mfbsde(law, x_paths, dw, degree=args.degree)
        y, z = sol.y_values, sol.z_values
    else:
        N = int(args.n)
        sim = simulate_blocks(
            law, N, n_blocks=args.reps, inner=args.inner,
            w_key=root.child("w", 0), env_key=root.child("envs", 0),
        )
        sol = solve_bsde_n(model, N, sim, degree=args.degree)
        y, z = sol.designated()
    zs = [f"z_{j + 1}" for j in range(z.shape[-1])]
    rows = [
        {"rep": r, "t": float(t), "y": float(y[r, i]), **dict(zip(zs, map(float, z[r, i])))}
        for r in range(y.shape[0])
        for i, t in enumerate(grid.nodes)
    ]
    _write_csv(args.out, ["rep", "t", "y", *zs], rows)
    print(f"wrote {args.out}: {y.shape[0]} replications ({'limit' if limit_mode else 'N=' + args.n})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="Mean-field forward-backward SDE approximation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a configuration file")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("convergence", help="run a convergence study from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override study.seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser("clt", help="run a fluctuation study (config file or direct flags)")
    p.add_argument("--config", default=None)
    p.add_argument("--model", default=None, help="JSON model block (direct mode)")
    p.add_argument("--lattice", default=None, help='JSON file {"times": [...]}')
    p.add_argument("--n", type=int, default=None, help="environment size")
    p.add_argument("--reps", type=int, default=None, help="replications per ensemble (study.reps)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=_cmd_clt)

    p = sub.add_parser("forward", help="simulate N-environment forward paths")
    p.add_argument("--model", required=True, help="JSON file with the model block")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--env-cloud", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_forward)

    p = sub.add_parser("backward", help="solve the backward equation")
    p.add_argument("--model", required=True)
    p.add_argument("--n", required=True, help="environment size or 'limit'")
    p.add_argument("--paths", default="fresh", help="'fresh' simulates paths internally")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--reps", type=int, default=64)
    p.add_argument("--inner", type=int, default=128)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--env-cloud", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_backward)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        # a study config fails before compute starts, so nothing was written
        print("invalid configuration:")
        for v in exc.violations:
            print(f"  - {v}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
