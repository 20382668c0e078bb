"""Work done in a fresh interpreter on behalf of run.py.

    child.py setup CLI_ARGS...
        Time import of citesim.cli + parse_config + generate_grid for the
        given sweep flags; print {"setup_s": ..., "configurations": ...}.

    child.py cli SPANS_PATH LEVEL PROBE_SEED CLI_ARGS...
        Run citesim.cli.main(CLI_ARGS) with spans recorded and write them to
        SPANS_PATH.  LEVEL "full" wraps every public function of the traced
        modules; "main" wraps only cli.main and experiment.run_sweep, whose
        two spans per run cost nothing measurable.  A PROBE_SEED >= 0 adds,
        after the sweep, replicate_statistics at each default world size.
"""

from __future__ import annotations

import json
import sys
import time

PROBE_REPLICATES = 200
PROBE_N_VALUES = (500, 1000, 5000, 10000, 50000)


def setup(cli_args) -> None:
    start = time.perf_counter()
    from citesim import cli, experiment

    config = cli.parse_config(cli_args)
    grid = experiment.generate_grid(
        mu_values=config.mu_values,
        p_values=config.p_values,
        n_values=config.n_values,
        sigma=config.sigma,
        mu_overall=config.mu_overall,
        replicates=config.replicates,
    )
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "configurations": len(grid)}))


def traced_cli(spans_path, level, probe_seed, cli_args) -> int:
    from citesim import cli, experiment

    from spans import Tracer, dump, instrument

    tracer = Tracer()
    instrument(tracer, only=None if level == "full" else {"cli.main", "experiment.run_sweep"})
    code = cli.main(cli_args)
    workload_spans = len(tracer)
    if probe_seed >= 0 and code == 0:
        for n_world in PROBE_N_VALUES:
            ps = experiment.ParameterSet(mu1=0.96, mu2=1.04, p1=0.15, p2=0.15, n_world=n_world,
                                         replicates=PROBE_REPLICATES)
            experiment.replicate_statistics(ps, probe_seed)
    dump(tracer, spans_path, exit_code=code, workload_spans=workload_spans)
    return code


def main(argv) -> int:
    if argv[0] == "setup":
        setup(argv[1:])
        return 0
    if argv[0] == "cli":
        return traced_cli(argv[1], argv[2], int(argv[3]), argv[4:])
    print(f"child.py: unknown mode {argv[0]!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
