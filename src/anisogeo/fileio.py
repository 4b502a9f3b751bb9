"""File formats: cost spec files (JSON), path files, vertex files, reports.

Cost spec schema (JSON object):

    kind        one of "pnorm" | "constant" | "crystalline" | "table" | "dip"
    dimension   optional; must be 2 when present (costs are planar)
    grid        optional planar grid size, 8 to 20000 (default 720)
    p           pnorm only: exponent >= 1 ("inf" accepted)
    c           constant only: positive value
    facets      crystalline only: [{"direction": [..], "weight": w>0}, ...]
    samples     table only: [{"angle": a in [0,2pi), "value": v>0}, ...]
    interpolation  table only, optional; must be "linear" when present
    base        dip only: nested cost spec
    dips        dip only: [{"direction": [..], "value": v>0}, ...]

Numeric fields are JSON numbers; booleans and strings are refused. Spec
and path files are UTF-8; one that cannot be read is a ``SpecError``.

Path files are plain text, one breakpoint per line, whitespace-separated
coordinates; blank lines and '#' comments are skipped. Vertex files use
the same row format and round-trip exactly: each value is what "%.17g"
prints, formatted for whole tables at once by ``_format_table``.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path as FilePath

import numpy as np

from .geodesics import Path
from .integrand import (
    GRID_SIZE_MAX,
    GRID_SIZE_MIN,
    AngularTable,
    Constant,
    Crystalline,
    Dip,
    Integrand,
    PNorm,
)


class SpecError(ValueError):
    """Malformed input file; CLI maps this to exit code 2."""


def _number(value, where: str) -> float:
    """A JSON number as a float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: number required")
    try:
        return float(value)
    except OverflowError:
        raise SpecError(f"{where}: number out of range") from None


def _vector(value, where: str) -> np.ndarray:
    """A JSON list of numbers as a float array."""
    if not isinstance(value, list):
        raise SpecError(f"{where}: list of numbers required")
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _direction_records(data: dict, field: str, number: str, where: str) -> list:
    """The (direction, number) pairs of ``data[field]``, a nonempty list of
    objects with a direction and a number: crystalline facets and dips."""
    records = data.get(field)
    if not isinstance(records, list) or not records:
        raise SpecError(f"{where}.{field}: nonempty list required")
    pairs = []
    for i, r in enumerate(records):
        at = f"{where}.{field}[{i}]"
        if not isinstance(r, dict) or "direction" not in r or number not in r:
            raise SpecError(f"{at}: need direction and {number}")
        pairs.append((_vector(r["direction"], f"{at}.direction"), _number(r[number], f"{at}.{number}")))
    return pairs


def read_bytes(path) -> bytes:
    """The file's bytes; a file that cannot be read is a :class:`SpecError` naming it."""
    path = FilePath(path)
    try:
        return path.read_bytes()
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror}") from exc


def _decoded(raw: bytes, path) -> str:
    """The text of a file's bytes, with universal newlines as ``Path.read_text``
    reads it; bytes that are not UTF-8 are a :class:`SpecError` naming the file."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"{FilePath(path)}: not UTF-8 text (byte {exc.start})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def integrand_from_dict(data: dict, where: str = "spec") -> Integrand:
    if not isinstance(data, dict):
        raise SpecError(f"{where}: expected an object")
    kind = data.get("kind")
    dim = data.get("dimension", 2)
    if not isinstance(dim, int) or dim != 2:
        raise SpecError(f"{where}.dimension: must be 2 (costs are planar)")
    try:
        if kind == "pnorm":
            p = data.get("p")
            return PNorm(math.inf if p == "inf" else _number(p, f"{where}.p"))
        if kind == "constant":
            return Constant(_number(data.get("c"), f"{where}.c"))
        if kind == "crystalline":
            return Crystalline(_direction_records(data, "facets", "weight", where))
        if kind == "table":
            samples = data.get("samples")
            if not isinstance(samples, list) or len(samples) < 3:
                raise SpecError(f"{where}.samples: list of at least 3 samples required")
            rule = data.get("interpolation", "linear")
            if rule != "linear":
                raise SpecError(f"{where}.interpolation: only \"linear\" is supported")
            angles = []
            values = []
            for i, s in enumerate(samples):
                if not isinstance(s, dict) or "angle" not in s or "value" not in s:
                    raise SpecError(f"{where}.samples[{i}]: need angle and value")
                angles.append(_number(s["angle"], f"{where}.samples[{i}].angle"))
                values.append(_number(s["value"], f"{where}.samples[{i}].value"))
            return AngularTable(angles, values)
        if kind == "dip":
            base = integrand_from_dict(data.get("base"), where=f"{where}.base")
            return Dip(base, _direction_records(data, "dips", "value", where))
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"{where}: {exc}") from exc
    raise SpecError(f"{where}.kind: unknown kind {kind!r}")


def load_integrand_spec(path) -> tuple[Integrand, int | None]:
    """Parse a cost spec file; returns the cost and an optional grid size."""
    return parse_integrand_spec(read_bytes(path), path)


def parse_integrand_spec(raw: bytes, path) -> tuple[Integrand, int | None]:
    """:func:`load_integrand_spec` of the bytes raw read from the file at path,
    with its refusals naming that path."""
    path = FilePath(path)
    try:
        data = json.loads(_decoded(raw, path))
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    integrand = integrand_from_dict(data, where=str(path))
    grid = data.get("grid")
    if grid is not None and (
        not isinstance(grid, int) or not GRID_SIZE_MIN <= grid <= GRID_SIZE_MAX
    ):
        raise SpecError(f"{path}.grid: integer from {GRID_SIZE_MIN} to {GRID_SIZE_MAX} required")
    return integrand, grid


def _parse_rows(path, dim: int | None = None) -> np.ndarray:
    path = FilePath(path)
    rows = []
    lines = _decoded(read_bytes(path), path).splitlines()
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            row = [float(tok) for tok in body.split()]
        except ValueError as exc:
            raise SpecError(f"{path}:{lineno}: not a number row ({exc})") from exc
        if not np.all(np.isfinite(row)):
            raise SpecError(f"{path}:{lineno}: coordinates must be finite")
        if dim is not None and len(row) != dim:
            raise SpecError(f"{path}:{lineno}: expected {dim} coordinates, got {len(row)}")
        if rows and len(row) != len(rows[0]):
            raise SpecError(f"{path}:{lineno}: inconsistent row length")
        rows.append(row)
    if not rows:
        raise SpecError(f"{path}: no coordinate rows found")
    return np.array(rows)


def load_path_file(path) -> Path:
    rows = _parse_rows(path, 2)
    if len(rows) < 2:
        raise SpecError(f"{path}: a path needs at least two breakpoints")
    try:
        return Path(rows)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def load_vertices(path) -> np.ndarray:
    return _parse_rows(path)


def save_rows(path, rows: np.ndarray, header: str | None = None) -> None:
    """Write coordinate rows with enough digits to round-trip exactly.

    Each value is written as ``"%.17g"`` prints it (see :func:`_format_table`).
    Only what :func:`load_vertices` reads back is written: an array that is
    not a nonempty 2-D table of finite numbers raises ``ValueError`` naming
    the file (and the first non-finite row), and no file is written.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise ValueError(f"{path}: expected a nonempty table of coordinate rows, got shape {rows.shape}")
    if not np.isfinite(rows).all():  # the row is found only on failure: axis=1 reductions are slow
        bad = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise ValueError(f"{path}: row {bad + 1} is not finite: {rows[bad].tolist()}")
    text = _format_table(rows, 17, " " * (rows.shape[1] - 1) + "\n")
    if header:
        text = f"# {header}\n{text}"
    FilePath(path).write_text(text)


# Tables of fewer digits than this (values times digits per value) are
# formatted by one "%" call. "%" costs about the same per digit at 8 and 17
# digits, and the kernel about the same per value plus a fixed cost, so the
# two take the same time near one digit count: about 4,300 at 17 digits and
# 5,600 at 8, measured on a 2-vCPU x86 machine.
_KERNEL_MIN_DIGITS = 4800
# The kernel formats this many rows at a time, which bounds its temporaries.
_CHUNK_ROWS = 2048


def _split(v):
    """Veltkamp's split of a double into two halves of 26 bits."""
    c = 134217729.0 * v  # 2**27 + 1
    high = c - (c - v)
    return high, v - high


# 10**k for 0 <= k <= 22, the powers of ten that binary64 holds exactly.
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HIGH, _POW10_LOW = _split(_POW10)
# The ASCII digits of every 4-digit group "0000" to "9999", four bytes each.
_QUADS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
_WORD = np.dtype("<u8")
_ZERO_WORD = int.from_bytes(b"0" * 8, "little")


def _round_scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10**k rounded half-even to an integer, exactly, as int64.

    Dekker's product of the split factors gives ``hi + lo``, the exact
    product. Above 2**53 ``hi`` is an even integer, and rounding ``lo``
    half-even settles a tie. Below 2**52 ``lo`` is far smaller than 1/2, so
    only ``hi`` a half-integer is a tie: ``lo`` of the same sign as the
    half carries it up in magnitude, and rint's half-even holds otherwise.
    Products in [2**52, 2**53) are not handled; at the 8 and 17 digits the
    writers use, the scaled value never lies there.
    """
    b, b1, b2 = _POW10.take(k), _POW10_HIGH.take(k), _POW10_LOW.take(k)
    hi = a * b
    a1, a2 = _split(a)
    lo = ((a1 * b1 - hi) + a1 * b2 + a2 * b1) + a2 * b2
    r = np.rint(hi)
    n = r.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    f = hi - r
    tie = np.flatnonzero(np.abs(f) == 0.5)
    if len(tie):
        past = tie[f[tie] * lo[tie] > 0.0]
        n[past] += np.sign(f[past]).astype(np.int64)
    return n


@functools.cache
def _cell_masks(digits: int) -> np.ndarray:
    """The word masks that lay out one cell, by ``(negative * pad + j) *
    pad + last``.

    A cell is ``words`` little-endian 64-bit words. Its bytes start as
    "00000" and the significand's digits (``pad`` bytes), the point goes
    after byte j = 5 + E, and the last nonzero digit is byte ``last``.
    The text shows bytes min(j, 5) to max(j, last), so each row holds:
    the shown bytes up to j, which stay; the shown bytes after j, which
    move up one byte; and the bytes put in: the point, when a nonzero
    digit follows it, and the sign just before the text.
    """
    pad = digits + 5
    words = -(-(pad + 2) // 8)  # with the point and the separator
    negative = np.arange(2)[:, None, None, None]
    j = np.arange(pad)[:, None, None]
    last = np.arange(pad)[:, None]
    at = np.arange(8 * words)
    start = np.minimum(j, 5)
    shown = (at >= start) & (at <= np.maximum(j, last))
    stay = np.broadcast_to(shown & (at <= j), (2, pad, pad, 8 * words))
    move = np.broadcast_to(shown & (at > j), stay.shape)
    put = np.where((at == j + 1) & (last > j), ord("."), 0)
    put = np.where(negative & (at == start - 1), ord("-"), put)
    masks = np.concatenate([stay * 255, move * 255, put], axis=3)
    return masks.astype(np.uint8).reshape(2 * pad * pad, -1).view(_WORD)


def _format_table(table: np.ndarray, digits: int, seps: str) -> str:
    """Every value of a finite 2-D table as ``"%.{digits}g"`` prints it,
    byte for byte, each followed by its column's character in ``seps``.

    ``digits`` is 8 or 17. A value whose ``%g`` exponent E (that of the
    value rounded to ``digits`` digits) is from -4 to ``digits - 1`` is in
    fixed notation. Its significand comes from :func:`_round_scaled` at
    the scale ``10**(digits - 1 - E)``, with E estimated by ``log10`` and
    corrected once where the rounded significand leaves
    [10**(digits-1), 10**digits): at powers of ten, or on a carry to
    10**digits. Its cell is "00000" and the significand's digits (through
    ``_QUADS``), masked and shifted by words to show the text with its
    point and sign (:func:`_cell_masks`), and the separator in the last
    byte; every other byte is NUL, and one pass over the whole table
    deletes them. Every other value (zeros, subnormals, magnitudes below
    1e-4, exponents that "%g" prints in exponential form) is left as a
    "%" conversion in the text, and one "%" call fills them all in. A table
    of fewer than ``_KERNEL_MIN_DIGITS`` digits is one "%" call.
    """
    fmt = f"%.{digits}g"
    n_rows, n_cols = table.shape
    if table.size * digits < _KERNEL_MIN_DIGITS:
        return ("".join(fmt + s for s in seps) * n_rows) % tuple(table.ravel().tolist())
    low, high = 10 ** (digits - 1), 10**digits
    pad = digits + 5
    groups = -(-digits // 4)
    first = pad - 4 * groups  # the zeros before the groups' digits
    masks = _cell_masks(digits)
    words = masks.shape[1] // 3
    sep = np.frombuffer(seps.encode(), np.uint8)
    chunks, slow_values = [], []
    for start in range(0, n_rows, _CHUNK_ROWS):
        x = table[start : start + _CHUNK_ROWS].ravel()
        a = np.abs(x)
        fixed = (a >= 1e-4) & (a < _POW10[digits])
        a = np.where(fixed, a, 1.0)
        e = np.minimum(np.floor(np.log10(a)).astype(np.int64), digits - 1)
        n = _round_scaled(a, digits - 1 - e)
        off = np.flatnonzero((n < low) | (n >= high))
        if len(off):
            e[off] += np.where(n[off] >= high, 1, -1)
            n[off] = _round_scaled(a[off], np.clip(digits - 1 - e[off], 0, 22))
            fixed &= (n >= low) & (n < high) & (e >= -4) & (e < digits)
            n[~fixed] = low
            e[~fixed] = 0
        quads = np.empty((len(x), groups), dtype=np.int64)
        for i in range(groups - 1, -1, -1):
            q = n // 10000
            np.subtract(n, 10000 * q, out=quads[:, i])
            n = q
        cells = np.full((len(x), 8 * words), ord("0"), dtype=np.uint8)
        cells[:, first:pad] = _QUADS.take(quads).view(np.uint8)
        w = cells.view(_WORD)
        # The last nonzero digit is the highest byte that is not "0". Less
        # "0", every byte is at most 9, so the float exponent of each word
        # finds its highest nonzero byte (and an empty word falls below 0).
        bits = (w ^ _ZERO_WORD).view(np.int64).astype(float).view(np.int64)
        byte = ((bits >> 52) + (64 * np.arange(words) - 1023)) >> 3
        last = byte[:, 0]
        for i in range(1, words):
            last = np.maximum(last, byte[:, i])
        j = e + 5
        mask = masks.take(((x < 0.0) * pad + j) * pad + last, axis=0)
        move = w & mask[:, words : 2 * words]
        w &= mask[:, :words]
        w |= mask[:, 2 * words :]
        w |= move << 8
        w.ravel()[1:] |= move.ravel()[:-1] >> 56  # bytes moved across words
        slow = np.flatnonzero(~fixed)
        if len(slow):
            cells[slow] = 0
            cells[slow, : len(fmt)] = np.frombuffer(fmt.encode(), np.uint8)
            slow_values += x[slow].tolist()
        cells.reshape(-1, n_cols, 8 * words)[:, :, -1] = sep
        chunks.append(cells.tobytes())
    text = b"".join(chunks).translate(None, b"\0").decode("ascii")
    return text % tuple(slow_values) if slow_values else text


def round_floats(obj):
    """Copy a JSON-able structure with floats cut to 12 significant digits."""
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return round_floats(obj.tolist())
    return obj


def report_json(report: dict) -> str:
    return json.dumps(round_floats(report), indent=2, sort_keys=True, allow_nan=False)


def report_csv(report: dict) -> str:
    """Flatten a report into key,value rows (lists joined by semicolons).

    Non-finite numbers are refused, as :func:`report_json` refuses them.
    """
    flat: dict[str, str] = {}

    def _cell(key: str, v) -> str:
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            raise ValueError(f"{key}: out of range float value {float(v)!r}")
        return str(round_floats(v))

    def _walk(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                _walk(f"{prefix}.{k}" if prefix else str(k), obj[k])
        elif isinstance(obj, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in obj):
            for i, v in enumerate(obj):
                _walk(f"{prefix}[{i}]", v)
        elif isinstance(obj, (list, tuple)):
            flat[prefix] = ";".join(_cell(prefix, v) for v in obj)
        else:
            flat[prefix] = _cell(prefix, obj)

    _walk("", report)
    return "\n".join(f"{k},{v}" for k, v in flat.items()) + "\n"
