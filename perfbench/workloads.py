"""The three workloads: seeded Phase-2 searches through the public API.

``fp_local`` and ``cf_local`` open a :class:`SynthesisSession` in this
process (``SynthesisService.open_session``) and run each job through
``SynthesisSession.run``.  ``edit_served`` starts a server process
(``serve_launcher.py``) and drives it with closed-loop
:class:`RemoteSynthesisSession` clients.  Every configuration value not
set here is the library default: no job fusion, one worker.

Jobs come from a stream seeded by ``--seed`` and run in stream order
until they have examined a candidate quota (``Spec.quota``, scaled by
``--seconds``).  The stream and every job's result are deterministic, so
a seed always gives the same job set; the quota keeps the work per run
nearly the same whichever tasks the seed drew -- a run of fixed job
count examines 15% more candidates on one seed than on another.

Each job is one timed section (see ``calib.py``): local jobs one by one,
served jobs one round of closed-loop traffic at a time, with the server
idle between rounds.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from calib import Calibrator, Section

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: cold set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: seed of the Phase-1 training run: the trained model is part of the
#: system under test, identical in every run; ``--seed`` picks the tasks
PHASE1_SEED = 0
#: Phase-1 corpus size and epochs.  The ``small`` preset trains in
#: 0.2 s, the quickstart sizes (2000 programs, 15 epochs) in 5 s (FP) to
#: 14 s (CF + FP); this middle size keeps three cold sessions per run
#: within about 5 s while training on enough data to matter.
PHASE1_CORPUS = 600
PHASE1_EPOCHS = 4
#: length of every task's hidden target program
PROGRAM_LENGTH = 4


@dataclass(frozen=True)
class Spec:
    """One workload: which method, what job size, how much work per run."""

    method: str
    #: candidate budget of each job
    budget: int
    #: candidates examined per second of --seconds, as measured on the
    #: machine the bounds were set on; sets the run's quota
    candidates_per_s: int
    served: bool = False
    clients: int = 1

    def quota(self, seconds: float) -> int:
        """Candidates a run examines before it stops taking jobs."""
        return max(1, int(seconds * self.candidates_per_s))


WORKLOADS: Dict[str, Spec] = {
    "fp_local": Spec(method="netsyn_fp", budget=5_000, candidates_per_s=6_500),
    "cf_local": Spec(method="netsyn_cf", budget=3_000, candidates_per_s=2_800),
    "edit_served": Spec(
        method="edit", budget=3_000, candidates_per_s=4_400, served=True, clients=2
    ),
}

@dataclass
class JobRecord:
    index: int
    task_seed: int
    ga_seed: int
    state: str = ""
    found: bool = False
    candidates: int = 0
    generations: int = 0
    program: Optional[Tuple[int, ...]] = None
    #: raw and calibrated seconds: the job's section (local) or its
    #: submit-to-terminal latency (served)
    raw_s: float = 0.0
    calibrated_s: float = 0.0
    submit_s: float = 0.0
    #: events delivered to listeners / kept on the job object
    events: int = 0
    job_events: int = 0
    #: monotonic times: submit called, terminal state seen by the caller
    t_submit: float = 0.0
    t_terminal: float = 0.0
    job_id: str = ""

    def fingerprint(self) -> list:
        return [self.index, self.found, self.candidates, self.generations]


@dataclass
class PassResult:
    """One pass over the job set."""

    jobs: List[JobRecord]
    sections: List[Section]
    setups: List[Section] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: the traced server's span dump (``spans.Tracer.dump``)
    trace: Optional[dict] = None

    @property
    def run_raw_s(self) -> float:
        return sum(s.raw_s for s in self.sections)

    @property
    def run_s(self) -> float:
        return sum(s.calibrated_s for s in self.sections)

    @property
    def candidates(self) -> int:
        return sum(job.candidates for job in self.jobs)


# ----------------------------------------------------------------------
# inputs


def make_job(spec: Spec, seed: int, index: int, dsl_config) -> Tuple[Any, JobRecord]:
    """Job ``index`` of the stream seeded by ``seed``: its task (a hidden
    random target program and its IO examples) and GA seed."""
    from repro.data import make_synthesis_task

    task_seed, ga_seed = (
        int(x) for x in np.random.SeedSequence([seed, index]).generate_state(2)
    )
    task = make_synthesis_task(
        length=PROGRAM_LENGTH, seed=task_seed, dsl_config=dsl_config, task_id=f"t{index}"
    )
    return task, JobRecord(index=index, task_seed=task_seed, ga_seed=ga_seed)


def phase1_config(spec: Spec):
    from repro import NetSynConfig

    kind = spec.method.split("_", 1)[1] if spec.method.startswith("netsyn_") else "edit"
    if kind == "edit":
        # the server's own --fitness edit configuration
        return NetSynConfig.small().replace(fitness_kind="edit", fp_guided_mutation=False)
    config = NetSynConfig.small(fitness_kind=kind, seed=PHASE1_SEED)
    config.training.corpus_size = PHASE1_CORPUS
    config.training.epochs = PHASE1_EPOCHS
    return config


def _record_result(record: JobRecord, job: Any) -> None:
    record.state = job.state.value
    record.job_events = len(job.events)
    result = job.result
    if result is not None:
        record.found = bool(result.found)
        record.candidates = int(result.candidates_used)
        record.generations = int(result.generations)
        if result.program is not None:
            record.program = tuple(result.program.function_ids)


# ----------------------------------------------------------------------
# local workloads


def open_local_session(spec: Spec):
    from repro import ServiceConfig, SynthesisService

    service = SynthesisService(phase1_config(spec), service_config=ServiceConfig())
    return service.open_session(methods=(spec.method,))


def _run_to_end(session: Any, job: Any) -> float:
    """Run one job through ``SynthesisSession.run``; the monotonic time
    its terminal state reached the caller."""
    session.run([job])
    return time.monotonic()


def run_local(
    spec: Spec,
    seed: int,
    seconds: float,
    cal: Calibrator,
    setup_repeats: int = SETUP_REPEATS,
) -> PassResult:
    """Cold-open ``setup_repeats`` sessions, then run the job set on the last."""
    setups = []
    for _ in range(setup_repeats):
        session = None  # let the previous session go before the next set-up
        gc.collect()
        session, section = cal.timed(lambda: open_local_session(spec))
        setups.append(section)
    event_counts = [0]

    def count_event(_event: Any) -> None:
        event_counts[0] += 1

    session.add_listener(count_event)
    jobs: List[JobRecord] = []
    sections: List[Section] = []
    examined = 0
    while examined < spec.quota(seconds):
        task, record = make_job(spec, seed, len(jobs), session.config.dsl)
        # each job starts from a collected heap, as a fresh request would:
        # without this, full collections land in whichever jobs cross the
        # allocation threshold and add up to 15% to a seed's run time
        gc.collect()
        before_events = event_counts[0]
        record.t_submit = time.monotonic()
        job = session.submit(task, budget=spec.budget, seed=record.ga_seed)
        record.submit_s = time.monotonic() - record.t_submit
        record.t_terminal, section = cal.timed(lambda: _run_to_end(session, job))
        record.raw_s, record.calibrated_s = section.raw_s, section.calibrated_s
        record.events = event_counts[0] - before_events
        record.job_id = job.job_id
        _record_result(record, job)
        jobs.append(record)
        sections.append(section)
        examined += record.candidates
    return PassResult(
        jobs=jobs,
        sections=sections,
        setups=setups,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


# ----------------------------------------------------------------------
# served workload


class ServerProcess:
    """A ``repro.serving`` server child, started via ``serve_launcher.py``
    with its journal in ``workdir``."""

    def __init__(self, workdir: Path, trace_out: Optional[Path] = None) -> None:
        journal = Path(tempfile.mkdtemp(prefix="journal-", dir=workdir))
        self.log_path = journal.with_suffix(".log")
        args = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += ["--", "--fitness", "edit", "--journal-dir", str(journal)]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=self._log, text=True, cwd=str(ROOT)
        )
        try:
            self.address = self._await_ready()
        except BaseException:
            self.close()
            raise

    def _await_ready(self) -> str:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            if line.startswith("SERVING "):
                return line.split()[1]
        self.proc.wait()
        raise RuntimeError(f"server exited before serving:\n{self.log_tail()}")

    def log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text(encoding="utf-8")[-2000:]

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (VmHWM), read while it runs."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain), wait, and require a clean exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        code = self.proc.poll()
        if code != 0:
            raise RuntimeError(f"server exited with {code}:\n{self.log_tail()}")
        self.close()

    def close(self) -> None:
        """Kill the server if it still runs, and release its pipes."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


class _Client:
    """One closed-loop client: a remote session on its own connection."""

    def __init__(self, address: str) -> None:
        from repro.serving.client import RemoteSynthesisSession

        self.session = RemoteSynthesisSession(address)
        self.received = 0
        self.session.add_listener(self._count)

    def _count(self, _event: Any) -> None:
        self.received += 1

    def run(self, spec: Spec, task: Any, record: JobRecord, errors: List[BaseException]) -> None:
        """Submit one job and stream it to its terminal state."""
        try:
            before_events = self.received
            record.t_submit = time.monotonic()
            job = self.session.submit(task, budget=spec.budget, seed=record.ga_seed)
            record.submit_s = time.monotonic() - record.t_submit
            self.session.run_job(job)
            record.t_terminal = time.monotonic()
            record.raw_s = record.t_terminal - record.t_submit
            record.events = self.received - before_events
            record.job_id = job.job_id
            _record_result(record, job)
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            errors.append(error)


def run_served(
    spec: Spec,
    seed: int,
    seconds: float,
    cal: Calibrator,
    workdir: Path,
    setup_repeats: int = SETUP_REPEATS,
    trace_out: Optional[Path] = None,
) -> PassResult:
    """Spawn the server ``setup_repeats`` times, keep the last, and drive
    it in timed rounds of one closed-loop job per client."""
    from repro.config import NetSynConfig

    setups = []
    servers: List[ServerProcess] = []
    clients: List[_Client] = []
    workdir = Path(tempfile.mkdtemp(prefix="served-", dir=workdir))
    try:
        for k in range(setup_repeats):
            last = k == setup_repeats - 1
            server, section = cal.timed(
                lambda: ServerProcess(workdir, trace_out=trace_out if last else None)
            )
            servers.append(server)
            setups.append(section)
            if not last:
                server.stop()
                cal.invalidate()
        dsl = NetSynConfig.small().dsl
        clients = [_Client(server.address) for _ in range(spec.clients)]
        jobs: List[JobRecord] = []
        sections: List[Section] = []
        examined = 0
        while examined < spec.quota(seconds):
            errors: List[BaseException] = []
            threads = []
            for client in clients:
                task, record = make_job(spec, seed, len(jobs), dsl)
                jobs.append(record)
                threads.append(threading.Thread(
                    target=client.run, args=(spec, task, record, errors), name="client"
                ))

            def run_round() -> None:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()

            _, section = cal.timed(run_round)
            if errors:
                raise errors[0]
            for record in jobs[-len(clients):]:
                record.calibrated_s = record.raw_s * section.factor
                examined += record.candidates
            sections.append(section)
        peak = server.peak_rss_mb()
        for client in clients:
            client.session.close()
        server.stop()
        trace = None
        if trace_out is not None:
            with open(trace_out, encoding="utf-8") as handle:
                trace = json.load(handle)
        return PassResult(
            jobs=jobs, sections=sections, setups=setups, peak_rss_mb=peak, trace=trace
        )
    finally:
        for client in clients:
            client.session.close()
        for server in servers:
            server.close()
        shutil.rmtree(workdir, ignore_errors=True)
