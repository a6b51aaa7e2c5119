"""CI hygiene checks on .github/workflows/ci.yml.

The workflow is configuration the test suite can't execute, but it
*can* hold to structural invariants that have each burned us at least
once in design review: a job without ``timeout-minutes`` burns a
runner for GitHub's 6-hour default when a socket wedges, a missing
concurrency group queues stale pushes behind dead ones, and a lane
silently stops checking anything if someone drops its step or
weakens its command.  Parsing the committed YAML keeps
those properties reviewable by ``pytest -q`` instead of by waiting
for CI to misbehave.
"""

import glob
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CI_PATH = os.path.join(ROOT, ".github", "workflows", "ci.yml")


@pytest.fixture(scope="module")
def workflow():
    with open(CI_PATH) as f:
        return yaml.safe_load(f)


@pytest.fixture(scope="module")
def jobs(workflow):
    return workflow["jobs"]


def steps_text(job):
    """One searchable string of a job's step names + run commands."""
    parts = []
    for step in job.get("steps", ()):
        parts.append(str(step.get("name", "")))
        parts.append(str(step.get("run", "")))
        parts.append(str(step.get("uses", "")))
        parts.append(str(step.get("with", "")))
    return "\n".join(parts)


class TestHygiene:
    def test_every_job_has_a_timeout(self, jobs):
        missing = [name for name, job in jobs.items() if "timeout-minutes" not in job]
        assert missing == [], (
            f"jobs without timeout-minutes (6h GitHub default): {missing}"
        )

    def test_concurrency_cancels_superseded_runs(self, workflow):
        conc = workflow.get("concurrency")
        assert conc, "workflow must define a concurrency group"
        assert conc.get("cancel-in-progress") is True
        assert "github.ref" in conc.get("group", "")

    def test_nightly_schedule_exists(self, workflow):
        # yaml parses the `on:` key as boolean True
        triggers = workflow.get("on") or workflow.get(True)
        assert "schedule" in triggers, "nightly schedule trigger missing"


class TestSimChaosSlice:
    SLICE = "--smoke --backends sim --modes faults,reconfig,reconfig-crash"

    @pytest.mark.parametrize("job", ["tests", "chaos"])
    def test_tests_and_nightly_chaos_run_the_sim_slice(self, jobs, job):
        """The deterministic substrate runs the real protocol under
        crashes and re-plans on every push and every nightly (the
        tier-1 twin is tests/test_chaos.py::SIM_CASES)."""
        text = " ".join(steps_text(jobs[job]).split())
        assert f"python -m repro.chaos {self.SLICE}" in text

    def test_tests_job_runs_the_in_process_slice(self, jobs):
        """The service's substrate under the same crashes and re-plans
        on every push, in the tests job (no job of its own)."""
        text = " ".join(steps_text(jobs["tests"]).split())
        slice_ = self.SLICE.replace("--backends sim", "--backends threaded")
        assert f"python -m repro.chaos {slice_}" in text

    def test_the_in_process_slice_checks_metrics(self, jobs):
        """The slice arms the metrics plane, so every crashed and
        re-planned case also checks the cross-attempt metrics merge
        against the protocol's counts (``run_chaos_case``)."""
        text = " ".join(steps_text(jobs["tests"]).split())
        slice_ = self.SLICE.replace("--backends sim", "--backends threaded")
        assert f"python -m repro.chaos {slice_} --metrics-out " in text

    def test_tests_job_runs_the_service_slice(self, jobs):
        """A live service under a crash or re-plan between seals, on
        both kinds of attempt, on every push (tier-1's twin is
        tests/test_chaos.py::SERVICE_CASES)."""
        text = " ".join(steps_text(jobs["tests"]).split())
        assert (
            "python -m repro.chaos --smoke --backends threaded,process --modes service"
            in text
        )


class TestDgsbenchSmokeLane:
    def test_lane_runs_the_smoke_then_the_self_test(self, jobs):
        """The declared end-to-end benchmark runs on every push: the
        harness and the runtime it measures cannot drift apart
        between the PRs that quote its numbers."""
        assert "dgsbench-smoke" in jobs, "dgsbench smoke lane missing"
        job = jobs["dgsbench-smoke"]
        assert job["timeout-minutes"] <= 15
        assert "schedule" in job.get("if", "")
        runs = [str(s.get("run", "")) for s in job["steps"]]
        smoke = [i for i, r in enumerate(runs) if "dgsbench/run.py --smoke" in r]
        selftest = [
            i for i, r in enumerate(runs) if "pytest dgsbench/test_dgsbench.py" in r
        ]
        assert smoke and selftest and smoke[0] < selftest[0]

    def test_an_incorrect_or_leaky_run_fails_the_lane(self, jobs):
        (smoke,) = [
            str(s["run"])
            for s in jobs["dgsbench-smoke"]["steps"]
            if "dgsbench/run.py --smoke" in str(s.get("run", ""))
        ]
        # run.py exits 0 on a mismatch (it reports, the caller judges),
        # so the step itself must refuse `"correct": false`; exit 3
        # (survivors) fails it through the shell's pipefail.
        assert "! grep -q '\"correct\": false'" in smoke
        assert "|| true" not in smoke


class TestServiceSmokeLane:
    def test_lane_runs_both_examples_and_the_service_suite(self, jobs):
        """The service front door end to end on every push: cluster
        epochs, a mid-stream crash, then tests/test_serve.py."""
        assert "service-smoke" in jobs, "service smoke lane missing"
        job = jobs["service-smoke"]
        assert "timeout-minutes" in job
        runs = [" ".join(str(s.get("run", "")).split()) for s in job["steps"]]
        for variant in ("--nodes 2", "--crash"):
            assert any(f"examples/service_mode.py {variant}" in r for r in runs), variant
        assert any("pytest" in r and "tests/test_serve.py" in r for r in runs)


class TestOneBenchmarkGate:
    def test_every_benchmark_path_a_step_names_exists(self, jobs):
        """dgsbench (``TestDgsbenchSmokeLane``) is the only benchmark
        with bounds.
        The retired baseline gate took its CLI, its committed baselines
        and the transport micros with it, so a step still naming one of
        them points at nothing: every ``benchmarks/`` path a job's steps
        name must match a file in the tree (``benchmarks/results/`` is
        output, written by the run)."""
        for name, job in jobs.items():
            for path in re.findall(r"benchmarks/[\w./*-]*\w", steps_text(job)):
                if path.startswith("benchmarks/results"):
                    continue
                assert glob.glob(os.path.join(ROOT, path)), (
                    f"job {name!r} names {path}, which does not exist"
                )

    def test_bench_smoke_runs_every_bench_file(self, jobs):
        runs = [" ".join(str(s.get("run", "")).split()) for s in jobs["bench-smoke"]["steps"]]
        assert any("pytest benchmarks/bench_*.py --smoke" in r for r in runs)
