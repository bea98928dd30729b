#!/usr/bin/env python3
"""Mutation gate: every committed mutant must be caught by the tests it names.

Each *.patch in this directory is one small fault seeded into the tree.
Its header (the lines before the diff) names the behaviour it breaks and,
on a line of its own, the ctest targets that must fail:

    Targets: test_span_edges test_page_schedule_differential

The script copies the checkout (tracked and untracked, not ignored files)
into a scratch directory, builds it once and checks that the named
targets pass there.  Then, for each patch, it applies the patch, rebuilds
the named targets, runs each of them and reverts the patch.  It fails if
a patch no longer applies, if a named target passes with the patch
applied (the mutant survives), if a target fails without it, or if a
patch does not revert (then it stops: the tree is no longer clean).

Usage:
    python3 tests/mutants/run.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)


def targets_of(patch):
    for line in patch.read_text().splitlines():
        if line.startswith('Targets:'):
            return line.split()[1:]
        if line.startswith('--- '):
            break
    sys.exit(f'{patch.name}: no "Targets:" line in its header')


def copy_tree(dest):
    files = subprocess.run(
        ['git', 'ls-files', '-z', '--cached', '--others', '--exclude-standard'],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout.split(b'\0')
    for f in files:
        if not f:
            continue
        src = ROOT / os.fsdecode(f)
        if not src.is_file():
            continue  # deleted in the working tree
        out = dest / os.fsdecode(f)
        out.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, out)


def build(tree, targets):
    r = run(['cmake', '--build', 'build', '-j', str(os.cpu_count() or 2),
             '--target'] + targets, tree)
    if r.returncode != 0:
        print(r.stdout[-4000:])
    return r.returncode == 0


def failing(tree, targets):
    """The targets among `targets` whose ctest run fails."""
    bad = []
    for t in targets:
        r = run(['ctest', '--test-dir', 'build', '-R', f'^{t}$',
                 '--no-tests=error'], tree)
        if r.returncode != 0:
            bad.append(t)
    return bad


def main():
    patches = sorted(HERE.glob('*.patch'))
    if not patches:
        sys.exit('no patches')
    plan = {p: targets_of(p) for p in patches}

    tree = pathlib.Path(tempfile.mkdtemp(prefix='sring-mutants-'))
    try:
        problems = check(tree, plan)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    if problems:
        print('\n'.join(problems))
        sys.exit(1)
    print(f'all {len(plan)} mutants caught')


def check(tree, plan):
    """Build `tree`, then run every mutant of `plan`; returns the problems."""
    copy_tree(tree)
    if run(['cmake', '-B', 'build', '-S', '.'], tree).returncode != 0:
        return ['configure failed']
    union = sorted({t for ts in plan.values() for t in ts})
    if not build(tree, union):
        return ['the unpatched tree does not build']
    bad = failing(tree, union)
    if bad:
        return [f'targets fail without any mutant: {" ".join(bad)}']

    problems = []
    for p, targets in plan.items():
        if run(['git', 'apply', '--check', str(p)], tree).returncode != 0:
            problem = 'no longer applies'
        else:
            run(['git', 'apply', str(p)], tree)
            problem = verdict(tree, targets)
            if run(['git', 'apply', '-R', str(p)], tree).returncode != 0:
                problems.append(f'{p.name}: does not revert; the mutants '
                                'after it were not run')
                print(f'FAIL {problems[-1]}', flush=True)
                break
        if problem:
            problems.append(f'{p.name}: {problem}')
            print(f'FAIL {problems[-1]}', flush=True)
        else:
            print(f'ok   {p.name}: caught by {" ".join(targets)}', flush=True)
    return problems


def verdict(tree, targets):
    """Rebuild the patched `tree`; None when every target fails."""
    if not build(tree, targets):
        return 'does not build'
    survived = [t for t in targets if t not in failing(tree, targets)]
    if survived:
        return f'survives {" ".join(survived)}'
    return None

if __name__ == '__main__':
    main()
