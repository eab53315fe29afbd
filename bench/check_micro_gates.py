#!/usr/bin/env python3
"""CI gates on micro_scheduler_cost results.

Usage: check_micro_gates.py GATE RESULT_JSON

RESULT_JSON is google-benchmark JSON output (--benchmark_out_format=json)
from the filter that GATE reads; .github/workflows/ci.yml runs each pair.
Every gate compares the best (minimum) time each benchmark reached over
its repetitions, prints one verdict line per comparison, and exits 1 when
a comparison fails:

  selection  indexed per-bank selection beats the full-buffer scan at 16
             cores for every scheduler in $PARBS_SCHEDULERS (cpu_time)
  obs        disabled observability within 1% of BM_ParBs_indexed/16
             (cpu_time)
  ras        disabled RAS model within 1% of BM_ParBs_indexed/16
             (cpu_time)
  sharded    sharded engine >= 1x serial at 16 cores/4 channels (enforced
             on >= 4 hardware threads) and >= 2x at 64 cores/8 channels
             (enforced on >= 8) (real_time)
  prof       disabled engine profiler within 1% of BM_System_sharded/64
             (real_time, enforced on >= 8 hardware threads)
"""

import json
import os
import re
import sys


def best_of(path, field):
    """Minimum `field` per benchmark over its repetitions."""
    with open(path) as f:
        benches = json.load(f)['benchmarks']
    best = {}
    for b in benches:
        if b.get('run_type') == 'iteration':
            name = b['run_name']
            best[name] = min(best.get(name, 1e30), b[field])
    return best


def selection(path):
    runs = best_of(path, 'cpu_time')
    canon = lambda s: re.sub(r'[^a-z0-9]', '', s.lower())
    covered = {canon(name[len('BM_'):name.index('_indexed')])
               for name in runs if '_indexed/' in name}
    missing = [s for s in os.environ['PARBS_SCHEDULERS'].split()
               if canon(s) not in covered]
    failed = False
    if missing:
        print(f'FAIL: no selection benchmark for: {missing}')
        failed = True
    for name, indexed in sorted(runs.items()):
        if '_indexed/' not in name:
            continue
        scan = runs[name.replace('_indexed/', '_scan/')]
        ratio = scan / indexed
        print(f'{name:28s} indexed {indexed:8.1f}ns  '
              f'scan {scan:8.1f}ns  ({ratio:.2f}x)')
        if ratio <= 1.0:
            print(f'FAIL: {name} not faster than the scan path')
            failed = True
    return failed


def off_switch(path, field, base_name, tag, off_name, on_name, what,
               need_threads=0):
    """A feature compiled in but switched off must cost at most 1% over
    `base_name`; the switched-on cost is informational."""
    best = best_of(path, field)
    base, off, on = best[base_name], best[off_name], best[on_name]
    if field == 'real_time':
        show = lambda t: f'{t / 1e6:7.1f}ms'
    else:
        show = lambda t: f'{t:8.1f}ns'
    threads = os.cpu_count() or 1
    enforced = threads >= need_threads
    print(f'baseline {show(base)}  {tag}_off {show(off)} '
          f'({off / base:.4f}x)  {tag}_on {show(on)} '
          f'({on / base:.4f}x, informational)')
    if enforced and off > base * 1.01:
        print(f'FAIL: disabled {what} costs more than 1%')
        return True
    if not enforced:
        print(f'informational only ({threads} hardware threads '
              f'< {need_threads})')
    return False


def sharded(path):
    best = best_of(path, 'real_time')
    threads = os.cpu_count() or 1
    failed = False
    for cores, channels, need, floor in ((16, 4, 4, 1.0), (64, 8, 8, 2.0)):
        serial = best[f'BM_System_serial/{cores}/real_time']
        parallel = best[f'BM_System_sharded/{cores}/real_time']
        ratio = serial / parallel
        enforced = threads >= need
        print(f'{cores}-core/{channels}-channel: serial '
              f'{serial / 1e6:7.1f}ms  sharded {parallel / 1e6:7.1f}ms '
              f'({ratio:.2f}x, need >= {floor}x, '
              f'{"enforced" if enforced else "informational"})')
        if enforced and ratio < floor:
            print(f'FAIL: sharded {cores}-core below {floor}x')
            failed = True
    return failed


GATES = {
    'selection': selection,
    'obs': lambda path: off_switch(
        path, 'cpu_time', 'BM_ParBs_indexed/16', 'obs',
        'BM_ParBs_obs_off', 'BM_ParBs_obs_on', 'observability'),
    'ras': lambda path: off_switch(
        path, 'cpu_time', 'BM_ParBs_indexed/16', 'ras',
        'BM_ParBs_ras_off', 'BM_ParBs_ras_on', 'RAS'),
    'sharded': sharded,
    'prof': lambda path: off_switch(
        path, 'real_time', 'BM_System_sharded/64/real_time', 'prof',
        'BM_System_prof_off/64/real_time', 'BM_System_prof_on/64/real_time',
        'engine profiler', need_threads=8),
}

if __name__ == '__main__':
    if len(sys.argv) != 3 or sys.argv[1] not in GATES:
        sys.exit(f'usage: {sys.argv[0]} {{{",".join(GATES)}}} RESULT_JSON')
    sys.exit(1 if GATES[sys.argv[1]](sys.argv[2]) else 0)
