"""The benchmark's workloads: corpus, pinned outputs and how one instance runs.

Each workload stresses one layer of shellball (see DESIGN.md for why each
instance is in its corpus and which were left out).  A check instance runs
``shellball check ... --format json`` in-process through
``shellball.cli.main``; its exit code and the sha256 of its report are
pinned.  A shelling instance calls the library directly; the ball
certificate of the deterministic order is pinned by digest, and seeded
random extensions are checked by structure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

# Explicit caps, so a change of the CLI defaults cannot move an instance
# between the Betti-free and the Betti-bound workload.
MAX_VERTICES = 16
MAX_FACETS = 200_000


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Outcome:
    seconds: float  # time in shellball calls only; output checks are not timed
    signature: str  # digest of everything the instance produced
    problems: tuple[str, ...]


@dataclass(frozen=True)
class CheckInstance:
    kind: str
    params: tuple[str, ...]
    field: int  # 0 for Q, 2 for GF(2)
    exit_code: int
    digest: str

    @property
    def name(self) -> str:
        field = f" --field {self.field}" if self.field else ""
        return f"check {self.kind} {' '.join(self.params)}{field}"

    @property
    def argv(self) -> list[str]:
        argv = ["check", self.kind, *self.params]
        if self.field:
            argv += ["--field", str(self.field)]
        return argv + [
            "--max-vertices", str(MAX_VERTICES),
            "--max-facets", str(MAX_FACETS),
            "--format", "json",
        ]

    def prepare(self, sb, seed: int) -> Callable[[], Outcome]:
        argv = self.argv
        cli = sb.cli  # main is looked up per call, so a traced pass sees its wrapper

        def run() -> Outcome:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                start = perf_counter()
                code = cli.main(list(argv))
                seconds = perf_counter() - start
            digest = sha256_text(out.getvalue())
            problems = []
            if code != self.exit_code:
                problems.append(f"exit code {code}, pinned {self.exit_code}")
            if digest != self.digest:
                problems.append(f"report sha256 {digest}, pinned {self.digest}")
            return Outcome(seconds, f"{code}:{digest}", tuple(problems))

        return run


@dataclass(frozen=True)
class ShellingInstance:
    m: int
    n: int
    r: int
    extensions: int
    digest: str  # sha256 of the deterministic order's BallCertificate.to_json_dict()

    @property
    def name(self) -> str:
        return f"shell minor m={self.m} n={self.n} r={self.r} x{self.extensions}"

    def prepare(self, sb, seed: int) -> Callable[[], Outcome]:
        spec = sb.MinorSpec.diagonal(self.m, self.n, self.r)
        ext_seed = random.Random(f"{seed}:{self.name}").randrange(2**32)

        def run() -> Outcome:
            start = perf_counter()
            facets = sb.enumerate_facets(spec, MAX_FACETS)
            cx, order = sb.path_complex(spec, facets)
            cert = sb.verify_ball(cx, order)
            pos = {mask: k for k, mask in enumerate(cx.facets)}
            extensions = [
                [pos[fam.mask] for fam in ext]
                for ext in sb.random_shelling_orders(facets, self.extensions, ext_seed)
            ]
            ext_certs = [sb.verify_ball(cx, ext) for ext in extensions]
            seconds = perf_counter() - start

            t = len(cx.facets)
            digest = sha256_text(canonical(cert.to_json_dict()))
            problems = []
            if digest != self.digest:
                problems.append(f"certificate sha256 {digest}, pinned {self.digest}")
            for k, (ext, ext_cert) in enumerate(zip(extensions, ext_certs)):
                if sorted(ext) != list(range(t)):
                    problems.append(f"extension {k} is not a permutation of the facets")
                if not ext_cert.ok:
                    problems.append(f"extension {k} fails verify_ball: {ext_cert.reason}")
                if len(ext_cert.shelling.steps) != t - 1:
                    problems.append(f"extension {k} has {len(ext_cert.shelling.steps)} steps, want {t - 1}")
            signature = sha256_text(canonical([digest, extensions]))
            return Outcome(seconds, signature, tuple(problems))

        return run


@dataclass(frozen=True)
class Workload:
    name: str
    target: tuple[str, ...]  # layers whose self time must exceed that of any other layer
    uncalled: tuple[str, ...]  # layers or span names with no call in a traced pass
    instances: tuple


def _minor(m, n, r, code, digest, field=0):
    return CheckInstance("minor", (f"m={m}", f"n={n}", f"r={r}"), field, code, digest)


def _polar(n, t, code, digest):
    return CheckInstance("polar", (f"n={n}", f"t={t}"), 0, code, digest)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lattice-minors",
            target=("complexes",),
            uncalled=("homology", "exactrank"),
            instances=(
                _minor(4, 5, 2, 0, "b156ce86aa7e71e6509289be87ac30140179e309a90c57ada268f0211fcad037"),
                _minor(3, 6, 2, 0, "19f6c40553f7f40f42580a2c6a462f18464c93330b5ee558ef429735dc4f9373"),
                _minor(4, 6, 1, 0, "3da1292f5c59d78aa890aa6a6eeb5e2b3d65f7948260bf0297ed94d88a988287"),
                _minor(4, 5, 1, 0, "877892b7ef9f2581cacedbfbf9a8edb9d5d503426b020dee06f15f3c1c9ca225"),
                _minor(3, 6, 1, 0, "db491418105b7df08e6149b87c7cc87eb3915ee276ee3963cd5570f3207f5791"),
            ),
        ),
        Workload(
            "betti-boundaries",
            target=("homology", "exactrank"),
            uncalled=(),
            instances=(
                _minor(3, 4, 1, 0, "f7b41614087854d2835e605ae3bb1176336ece5f77b33dde7aecf047acd663c0"),
                _minor(3, 4, 2, 0, "81c2e2b72cfaac67bf99eeba8e1ca96183881b0773d0ea293fdfe3b2d9cb3f7d"),
                _polar(3, 3, 0, "729b375a162522125c1e179e9afd328f48ede43433f103ace0d611320f117592"),
                _polar(4, 3, 0, "b4ebd4b0a7719484806e610761bcfd14d958703531a2bf6a2261317fa60338a9"),
                _polar(5, 2, 0, "67b8ab734d7dc18fcc34a364eabb3f79aa6fade231d0755e99f937e11e4e271d"),
                _minor(3, 5, 1, 0, "9c795e5b2bdf041a095fdb4c31124a52562f470a2772e99c8bfcdac98734bb03", field=2),
                _minor(3, 4, 2, 0, "81c2e2b72cfaac67bf99eeba8e1ca96183881b0773d0ea293fdfe3b2d9cb3f7d", field=2),
            ),
        ),
        Workload(
            "shelling-orders",
            target=("paths",),
            uncalled=("homology", "exactrank", "complexes.faces_by_size"),
            instances=(
                ShellingInstance(5, 6, 2, 2, "2ad0935154400c97f6c810f142c203c67a8d93799804978fa8e30725966b29e1"),
                ShellingInstance(5, 7, 1, 4, "80c213fe43f9aaa38aaa89f358d912df5b825a42551c979a3e3e6ea2b1bd8d48"),
            ),
        ),
    )
}
