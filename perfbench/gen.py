"""Seeded input generators, written apart from the program under test.

Every input the benchmark feeds the program comes from here, and every
reference answer comes from these constructions or from Python's ``re``;
``repro.workloads`` is used only for the IDS ruleset the workload is
defined over.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Tuple

import numpy as np


def rn_source(n: int) -> str:
    """The paper's ``r_n = ([0-4]{n}[5-9]{n})*``."""
    return f"([0-4]{{{n}}}[5-9]{{{n}}})*"


def rn_text(rng: np.random.Generator, n: int, nbytes: int) -> bytes:
    """A text in ``L(r_n)`` by construction: whole blocks of ``n`` digits
    from ``[0-4]`` followed by ``n`` digits from ``[5-9]``."""
    blocks = nbytes // (2 * n)
    out = np.empty((blocks, 2 * n), dtype=np.uint8)
    out[:, :n] = rng.integers(0x30, 0x35, size=(blocks, n), dtype=np.uint8)
    out[:, n:] = rng.integers(0x35, 0x3A, size=(blocks, n), dtype=np.uint8)
    return out.tobytes()


def rn_twin(rng: np.random.Generator, text: bytes, n: int) -> bytes:
    """The rejected twin of an ``r_n`` text: one digit of a ``[5-9]`` run in
    the second half is replaced by a ``[0-4]`` digit.  Words of ``L(r_n)``
    parse into aligned ``2n``-byte blocks, so the twin is outside it."""
    blocks = len(text) // (2 * n)
    b = int(rng.integers(blocks // 2, blocks))
    pos = b * 2 * n + n + int(rng.integers(0, n))
    buf = bytearray(text)
    buf[pos] = int(rng.integers(0x30, 0x35))
    return bytes(buf)


def cold_rn_sizes() -> Iterator[int]:
    """The ``n`` of successive cold ``r_n`` ops: 49, 51, 48, 52, ..., 6, 94,
    then 95, 96, ...  The order is fixed (not seeded) so that every run's
    cold ops cost alike, and no ``n`` repeats."""
    for d in range(1, 45):
        yield 50 - d
        yield 50 + d
    yield from itertools.count(95)


_LEVELS = ("INFO", "INFO", "INFO", "INFO", "DEBUG", "DEBUG", "WARN")
_KEYS = ("user", "req", "path", "took", "size", "id", "ms", "port", "retry")


def log_corpus(rng: np.random.Generator, nbytes: int) -> bytes:
    """Syslog-like lines.  About 2% are ``ERROR <code>`` lines (sparse
    literal hits), about 0.5% of key=value pairs have an ``[a-c]+`` key
    (sparse literal-free hits), and digits are everywhere (dense hits)."""
    lines: List[str] = []
    size = 0
    batch = 4096
    while size < nbytes:
        day = rng.integers(1, 29, batch)
        hh = rng.integers(0, 24, batch)
        mm = rng.integers(0, 60, batch)
        ss = rng.integers(0, 60, batch)
        host = rng.integers(0, 9, batch)
        pid = rng.integers(100, 99999, batch)
        lvl = rng.integers(0, len(_LEVELS), batch)
        err = rng.random(batch) < 0.02
        code = rng.integers(1, 99999, batch)
        keys = rng.integers(0, len(_KEYS), (batch, 3))
        abc = rng.random((batch, 3)) < 0.005
        abc_key = rng.integers(0, 3, (batch, 3))
        vals = rng.integers(0, 99999, (batch, 3))
        for i in range(batch):
            level = f"ERROR {code[i]}" if err[i] else _LEVELS[lvl[i]]
            kv = " ".join(
                f"{('cab', 'abba', 'bc')[abc_key[i, j]] if abc[i, j] else _KEYS[keys[i, j]]}"
                f"={vals[i, j]}"
                for j in range(3)
            )
            line = (
                f"2024-03-{day[i]:02d}T{hh[i]:02d}:{mm[i]:02d}:{ss[i]:02d} "
                f"host{host[i]} app[{pid[i]}]: {level} {kv}\n"
            )
            lines.append(line)
            size += len(line)
            if size >= nbytes:
                break
    return "".join(lines).encode()[:nbytes]


def cold_log_patterns(rng: np.random.Generator) -> Iterator[str]:
    """Literal-bearing patterns no earlier op used: each names one host,
    one leading pid digit and one level, so its required literal is
    ``host<h> app[<d>``."""
    levels = ("INFO", "DEBUG", "WARN", "ERROR")
    combos = [(h, d, lv) for h in range(9) for d in range(1, 10) for lv in levels]
    order = rng.permutation(len(combos))
    for k in itertools.count(1):
        for i in order:
            h, d, lv = combos[int(i)]
            yield f"host{h} app\\[{d}[0-9]{{{k},}}\\]: {lv}"


_ATTACK_WORDS = (
    "admin", "login", "exec", "cmd", "shell", "root", "passwd", "index",
    "config", "upload", "search", "query", "debug", "cgi-bin", "scripts",
    "php", "asp", "SELECT", "UNION", "DROP", "xp_cmdshell", "wget", "curl",
    "bash", "powershell", "eval", "base64", "decode", "overflow", "format",
)
_SEPARATORS = ("/", ".", "=", "_", "%20", "\x00", ":", "-")
_METHODS = ("GET", "POST", "HEAD", "PUT", "DELETE")


def attack_snippet(rng: np.random.Generator) -> bytes:
    words = [_ATTACK_WORDS[int(i)] for i in rng.integers(0, len(_ATTACK_WORDS), 3)]
    seps = [_SEPARATORS[int(i)] for i in rng.integers(0, len(_SEPARATORS), 2)]
    body = words[0] + seps[0] + words[1] + seps[1] + words[2]
    if rng.random() < 0.4:
        body = f"{_METHODS[int(rng.integers(0, len(_METHODS)))]} /{body}"
    return body.encode("latin-1")


def payloads(rng: np.random.Generator, count: int, size: int = 512,
             attack_share: float = 0.3) -> List[bytes]:
    """Printable packet payloads of ``size`` bytes.  Exactly
    ``attack_share`` of them (at seeded positions) carry one, two or three
    attack snippets at random offsets, in equal numbers, so every seed
    sends the same mix."""
    attacked = rng.permutation(count)[: round(attack_share * count)]
    snippets = {int(i): 1 + rank % 3 for rank, i in enumerate(attacked)}
    out = []
    for i in range(count):
        buf = bytearray(rng.integers(0x20, 0x7F, size, dtype=np.uint8).tobytes())
        for _ in range(snippets.get(i, 0)):
            snip = attack_snippet(rng)[: size // 2]
            at = int(rng.integers(0, size - len(snip)))
            buf[at:at + len(snip)] = snip
        out.append(bytes(buf))
    return out


#: The ``match``/``contains`` hot set of the IDS workload: (pattern, mode).
HOT_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("(cmd|shell|bash)[./=_:-]", "contains"),
    ("passwd", "contains"),
    ("(GET|POST) /[a-z]+", "contains"),
    ("SELECT[ -~]*UNION", "contains"),
    ("[ -~]*", "fullmatch"),
    ("[ -~]*(admin|root)[ -~]*", "fullmatch"),
)
