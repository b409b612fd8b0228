"""Lazy, ordered job streaming (:func:`repro.parallel.bounded_map`)."""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.parallel import bounded_map


def test_closing_the_stream_cancels_jobs_not_started():
    """A consumer that stops reading must not pay for the queued jobs:
    with one thread and a window of 4, jobs 0-3 are submitted before the
    first result; job 1 is held running while the consumer stops, so
    jobs 2 and 3 are still queued and must never start."""
    started = []
    job1_running, release = threading.Event(), threading.Event()

    def job(i):
        started.append(i)
        if i == 1:
            job1_running.set()
            release.wait(timeout=10)
        return 10 * i

    with ThreadPoolExecutor(1) as pool:
        stream = bounded_map(pool, job, range(6), window=4)
        first = next(stream)
        assert job1_running.wait(timeout=10)
        stream.close()
        release.set()
    assert first == 0
    assert started == [0, 1]
