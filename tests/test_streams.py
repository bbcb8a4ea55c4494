import os
import threading
import time

from randmax import chunked_draws


def test_chunk_workers_capped_by_cpu_count():
    idents = set()

    def draw(rng, m):
        idents.add(threading.get_ident())
        time.sleep(0.005)  # keep each chunk busy so an uncapped pool starts more threads
        return rng.random(m)

    wide = chunked_draws(7, 64, draw, threads=64, chunk=1)
    assert len(idents) <= (os.cpu_count() or 1)
    narrow = chunked_draws(7, 64, lambda rng, m: rng.random(m), threads=1, chunk=1)
    assert wide.tobytes() == narrow.tobytes()
