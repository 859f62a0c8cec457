"""Named, counter-based random streams.

Every stochastic consumer (dropout, samplers, weight init) draws from its own
labeled stream derived from a single root seed, so results do not depend on
the order in which unrelated components consume randomness. Stream states are
serializable for bit-exact checkpoint resume.
"""

import hashlib

import numpy as np


def _derive_key(root_seed: int, label: str) -> list[int]:
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 16, 8)]


class SeedStreams:
    """Registry of independently seeded Philox streams keyed by label."""

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, label: str) -> np.random.Generator:
        if label not in self._streams:
            bg = np.random.Philox(key=_derive_key(self.root_seed, label))
            self._streams[label] = np.random.Generator(bg)
        return self._streams[label]

    def capture(self) -> dict:
        """Snapshot of every active stream's state (JSON-serializable)."""
        out = {"root_seed": self.root_seed, "streams": {}}
        for label, gen in self._streams.items():
            out["streams"][label] = _jsonify(gen.bit_generator.state)
        return out

    def restore(self, snapshot: dict) -> None:
        if snapshot["root_seed"] != self.root_seed:
            raise ValueError(
                f"snapshot root seed {snapshot['root_seed']} != {self.root_seed}"
            )
        for label, state in snapshot["streams"].items():
            gen = self.stream(label)
            gen.bit_generator.state = _unjsonify(state)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    return obj


def _unjsonify(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return {k: _unjsonify(v) for k, v in obj.items()}
    return obj
