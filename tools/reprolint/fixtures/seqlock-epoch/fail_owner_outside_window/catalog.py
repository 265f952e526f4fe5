# rel: repro/core/catalog.py
class MiniCatalog:
    def __init__(self, table):
        self._write_seq = 0
        self._table = table
        self._owner = {}
        self._epoch = 0

    def _write(self):
        raise NotImplementedError

    def _touch(self, arrays, contents=True):
        self._epoch += 1

    def relocate(self, i, ref):
        # The planned owner is published without the seqlock window: a
        # concurrent snapshot can pin the new owner under the old epoch.
        self._owner[i] = self._table.owners([i])[0]
        self._touch({ref.array}, contents=False)
