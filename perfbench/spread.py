#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

Run from the repository root, one invocation at a time (runs must not
overlap, or they slow each other down):

    python3 perfbench/spread.py --workload concurrent-local --seeds 1,2,3,4,5

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median, the figure each end-to-end bound in
BENCHMARK.json is compared against. --json FILE also writes the values.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seeds', default='1,2,3,4,5,6,7,8,9,10')
    ap.add_argument('--seconds', help="default: BENCHMARK.json's run_seconds")
    ap.add_argument('--trace', default='0')
    ap.add_argument('--json')
    a = ap.parse_args()
    if a.seconds is None:
        with open('BENCHMARK.json') as f:
            a.seconds = str(json.load(f)['run_seconds'])

    values = {}
    units = {}
    env = None
    for seed in a.seeds.split(','):
        p = subprocess.run(['bash', 'perfbench/run.sh', '--workload', a.workload, '--seed', seed,
                            '--seconds', a.seconds, '--trace', a.trace],
                           capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f'seed {seed}: exit {p.returncode}\n{p.stderr}')
        res = json.loads(lines[-1])
        for line in lines:
            if line.startswith('env: ') and env is None:
                env = json.loads(line[len('env: '):])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        if not res['correct']:
            sys.exit(p.stdout)
        for name, m in res['metrics'].items():
            values.setdefault(name, []).append(m['value'])
            units[name] = m['unit']

    summary = {}
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {'median': med, 'q1': q1, 'q3': q3, 'spread': spread,
                         'unit': units[name], 'values': v}
        print(f'{name:24s} median={med:<12.6g} spread={spread:.4f} {units[name]}')
    if a.json:
        with open(a.json, 'w') as f:
            json.dump({'workload': a.workload, 'seeds': a.seeds, 'seconds': a.seconds,
                       'trace': a.trace, 'env': env, 'metrics': summary}, f, indent=1)


if __name__ == '__main__':
    main()
