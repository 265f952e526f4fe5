# rel: repro/core/catalog.py
class MiniCatalog:
    def __init__(self):
        self._write_seq = 0
        self._chunks = {}
        self._owner = {}
        self._epoch = 0

    def _write(self):
        raise NotImplementedError  # seqlock context manager stand-in

    def _touch(self, arrays):
        self._epoch += 1

    def put(self, i, chunk, owner):
        with self._write():
            self._chunks[i] = chunk
            self._owner[i] = owner
            self._touch({chunk.ref().array})
