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

import ast
import glob
import os
import re
import shlex

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

    def test_the_sim_slice_checks_metrics(self, jobs):
        """The sim's one pseudo-worker is checked against the protocol's
        counts on every push too, as the threaded and process slices'
        workers are."""
        text = " ".join(steps_text(jobs["tests"]).split())
        assert f"python -m repro.chaos {self.SLICE} --metrics-out chaos-metrics/sim" in text

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

    def test_tests_job_runs_the_queue_transport_slice(self, jobs):
        """The queue transport under crashes and re-plans on every push:
        its frames and its drain() after an aborted attempt."""
        text = " ".join(steps_text(jobs["tests"]).split())
        slice_ = self.SLICE.replace(
            "--backends sim", "--backends process --transport queue"
        )
        assert f"python -m repro.chaos {slice_}" in text

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_tests_job_runs_the_shm_and_tcp_process_slices(self, jobs, transport):
        """Completion by frontier rides every transport's end-of-attempt
        path (the done announcements, then the stop frames), so the
        rings and single-host TCP get crashes and re-plans on every
        push too."""
        text = " ".join(steps_text(jobs["tests"]).split())
        slice_ = self.SLICE.replace(
            "--backends sim", f"--backends process --transport {transport}"
        )
        assert f"python -m repro.chaos {slice_}" in text

    def test_tests_job_runs_the_process_slice(self, jobs):
        """The process backend on its default transport under crashes
        and re-plans on every push: every place pumps its workers' own
        input, so crashes land mid-pump and stop frames reach leaves
        that are still pumping."""
        text = " ".join(steps_text(jobs["tests"]).split())
        slice_ = self.SLICE.replace("--backends sim", "--backends process")
        assert f"python -m repro.chaos {slice_}" in text

    def test_tests_job_runs_the_process_slice_on_one_cpu(self, jobs):
        """The coordinator's place and a forked place on one CPU, under
        crashes and re-plans, on every push."""
        runs = {
            s.get("name"): " ".join(str(s.get("run", "")).split())
            for s in jobs["tests"]["steps"]
        }
        slice_ = self.SLICE.replace("--backends sim", "--backends process")
        assert runs["Chaos slice on the process backend, one CPU"] == (
            f"taskset -c 0 python -m repro.chaos {slice_}"
        )

    def test_the_process_slice_checks_metrics(self, jobs):
        """The process backend's workers' metrics are checked against the
        protocol's counts on every push too: their ``batches_sent`` /
        ``messages_sent`` come from the sender the threaded slice's
        workers also use."""
        text = " ".join(steps_text(jobs["tests"]).split())
        slice_ = self.SLICE.replace("--backends sim", "--backends process")
        assert f"python -m repro.chaos {slice_} --metrics-out chaos-metrics/process" in text


def chaos_argvs(jobs):
    """(job, step name, argv) of every ``repro.chaos`` command a step
    runs: the words after ``-m repro.chaos`` up to the end of the
    command."""
    found = []
    for name, job in jobs.items():
        for step in job.get("steps", ()):
            words = shlex.split(str(step.get("run", "")))
            for i in range(len(words) - 1):
                if words[i : i + 2] == ["-m", "repro.chaos"]:
                    argv = []
                    for word in words[i + 2 :]:
                        if word in ("&&", "||", ";", "|"):
                            break
                        argv.append(word)
                    found.append((name, step.get("name", ""), argv))
    return found


class TestChaosSlicesReachTheirModes:
    def test_every_chaos_step_generates_every_mode_and_workload_it_names(self, jobs):
        """``generate_cases`` moves to the next mode only every
        apps × backends cases, and to the next workload every
        apps × backends × modes cases: a step with too few ``--cases``
        silently runs a prefix of what it names."""
        from repro.chaos import _parse_args, generate_cases

        steps = chaos_argvs(jobs)
        assert len(steps) >= 10, steps
        missing = []
        for job, name, argv in steps:
            args = _parse_args(argv)
            modes = tuple(args.modes.split(","))
            workloads = tuple(args.workloads.split(","))
            cases = generate_cases(
                seed=args.seed,
                n_cases=args.cases,
                backends=tuple(args.backends.split(",")),
                apps=tuple(args.apps.split(",")),
                modes=modes,
                workloads=workloads,
            )
            for flag, wanted, got in (
                ("--modes", modes, {c.mode for c in cases}),
                ("--workloads", workloads, {c.workload for c in cases}),
            ):
                absent = [v for v in wanted if v not in got]
                if absent:
                    missing.append(f"{job} / {name}: {flag} {absent} never generated")
        assert missing == []


class TestNightlyMailboxOracle:
    def test_chaos_job_runs_the_oracle_at_the_nightly_profile(self, jobs):
        """The scheduled job holds the mailbox against its per-event
        reference at 20 000 examples, and the profile it names exists."""
        from hypothesis import settings

        text = " ".join(steps_text(jobs["chaos"]).split())
        assert (
            "python -m pytest -q tests/test_mailbox_oracle.py "
            "--hypothesis-profile=nightly" in text
        )
        assert os.path.exists(os.path.join(ROOT, "tests", "test_mailbox_oracle.py"))
        assert settings.get_profile("nightly").max_examples >= 10000

    def test_chaos_job_runs_the_codec_properties_at_the_nightly_profile(self, jobs):
        """Producers build runs by route alone, so the frame codec's
        properties are the one guard of exact-type round trips; the
        scheduled job runs them at the nightly profile too."""
        text = " ".join(steps_text(jobs["chaos"]).split())
        files = ("tests/test_batch_runs.py", "tests/test_runtime_wire.py")
        assert f"python -m pytest -q {' '.join(files)} --hypothesis-profile=nightly" in text
        for name in files:
            assert os.path.exists(os.path.join(ROOT, name))


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


class TestDistributedSmokeLane:
    def test_the_pytest_step_runs_the_control_channel_suite(self, jobs):
        """The kill and lifecycle tests of the forked children's control
        channel run where node agents are exercised end to end."""
        runs = [" ".join(str(s.get("run", "")).split()) for s in jobs["distributed-smoke"]["steps"]]
        (step,) = [r for r in runs if r.startswith("python -m pytest")]
        assert "tests/test_runtime_control.py" in step.split()
        assert os.path.exists(os.path.join(ROOT, "tests", "test_runtime_control.py"))


    def test_the_lane_runs_the_cluster_example(self, jobs):
        """The one user-facing ``nodes=`` example, which exits 1 on a
        spec mismatch, runs spread over three agents and pinned."""
        runs = [str(s.get("run", "")).strip() for s in jobs["distributed-smoke"]["steps"]]
        assert "python examples/distributed.py --nodes 3 --workers 6" in runs
        assert "python examples/distributed.py --placement w1=node0" in runs
        assert os.path.exists(os.path.join(ROOT, "examples", "distributed.py"))

    def test_the_lane_runs_the_example_with_a_node_that_hosts_no_worker(self, jobs):
        """The example's pins leave one of its three nodes without a
        worker: the node is declared, and no agent is forked for it."""
        from repro.apps import value_barrier as vb
        from repro.runtime import local_nodes, resolve_placement

        runs = {
            s.get("name"): " ".join(str(s.get("run", "")).split())
            for s in jobs["distributed-smoke"]["steps"]
        }
        cmd = runs["Cluster example, a node that hosts no worker"]
        assert cmd == (
            "python examples/distributed.py --nodes 3 --workers 2 "
            "--placement w1=node0,w2=node0,w3=node1"
        )
        prog = vb.make_program()
        plan = vb.make_plan(prog, vb.make_workload(n_value_streams=2))
        pins = dict(pair.split("=") for pair in cmd.split("--placement ")[1].split(","))
        nodes = local_nodes(3)
        hosting = set(resolve_placement(plan, nodes, pins).values())
        assert hosting < {n.name for n in nodes}

    def test_the_lane_runs_the_one_place_chaos_slice(self, jobs):
        """Crashes and re-plans with every worker of a plan in one node
        agent: its run queue carries every join step."""
        runs = {
            s.get("name"): " ".join(str(s.get("run", "")).split())
            for s in jobs["distributed-smoke"]["steps"]
        }
        assert runs["Chaos slice with every worker in one place"] == (
            "python -m repro.chaos --smoke --backends process --transport tcp "
            "--nodes 1 --modes faults,reconfig,reconfig-crash"
        )


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


class TestBareInstallLane:
    """The package installs and runs with no extras: numpy and networkx
    are test oracles in the dev extra, not runtime dependencies."""

    def test_lane_installs_with_no_extras_into_a_fresh_venv(self, jobs):
        assert "bare-install" in jobs, "bare-install lane missing"
        job = jobs["bare-install"]
        assert job["timeout-minutes"] <= 15
        assert "schedule" in job.get("if", "")
        text = " ".join(steps_text(job).split())
        assert "-m venv" in text
        assert re.search(r"-m pip install \.(\s|$)", text)
        assert "[dev]" not in text and "pip install -e" not in text

    def test_lane_runs_the_three_checks_outside_the_checkout(self, jobs):
        steps = [s for s in jobs["bare-install"]["steps"] if "bare/bin/python" in str(s.get("run"))]
        checks = {
            "import check": "import sys, repro, repro.serve, repro.chaos, repro.bench;",
            "chaos smoke": "-m repro.chaos --smoke --cases 8",
            "quickstart": "examples/quickstart.py",
        }
        for what, needle in checks.items():
            (step,) = [s for s in steps if needle in " ".join(str(s["run"]).split())]
            assert step.get("working-directory") == "${{ runner.temp }}", what
        (imports,) = [s["run"] for s in steps if "set(sys.modules)" in str(s["run"])]
        assert "'numpy'" in imports and "'networkx'" in imports
        (quickstart,) = [s["run"] for s in steps if "quickstart.py" in str(s["run"])]
        assert 'grep -q "outputs match sequential spec: True"' in quickstart

    def test_the_package_declares_no_runtime_dependency(self):
        with open(os.path.join(ROOT, "pyproject.toml")) as f:
            text = f.read()
        (deps,) = re.findall(r"^dependencies = (\[.*?\])$", text, re.M | re.S)
        assert ast.literal_eval(deps) == []  # a TOML array of strings


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
        """On every push, at smoke size: the paper figures and Table 1
        reach the three simulated engines (Flumina, Flink-like,
        Timely-like) only through this lane, so nothing after the
        command may deselect a file or a test, or forgive a failure."""
        job = jobs["bench-smoke"]
        assert "schedule" in job.get("if", "")
        (step,) = [
            str(s["run"]) for s in job["steps"] if "benchmarks/" in str(s.get("run", ""))
        ]
        words = shlex.split(step)
        assert words[:5] == ["python", "-m", "pytest", "benchmarks/bench_*.py", "--smoke"]
        assert not {"-k", "-m", "--deselect", "--ignore", "||"} & set(words[5:])
        figures = ("fig4_flink", "fig4_timely", "fig6_splan", "fig8_flumina",
                   "fig10_latency", "table1_tradeoffs")
        missing = [
            f for f in figures
            if not os.path.exists(os.path.join(ROOT, "benchmarks", f"bench_{f}.py"))
        ]
        assert missing == []

