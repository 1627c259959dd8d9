"""The scan walk: the paper-scale oracle for the cycle simulator's grid walk.

``repro.hw.cycle_sim`` walks each design point in O(rows): a row's K-load
ladder folds into two upper envelopes of lines in the K-column step,
built once per MAC-line count.  This module keeps the walk it replaced,
which scans every (point, row, job) cell: design points grouped by their
(MAC lines, bytes/cycle, AE ratio) triple, each group's running max of
the request ladder built once, then broadcast over the group's points.

The scalar event loop of ``tests/cycle_reference.py`` is the ground
truth, but it costs ~0.3 s per DeiT-Base point, so it cannot check
1024-point chunks in tier-1.  This scan can, in well under a second, and
production must match it bit for bit on every per-layer field array.

:func:`scan_walk` has the signature of
``CycleAccurateSimulator._walk`` (with the simulator passed first) and
reads only the simulator's column resolution, geometry and DRAM service
helpers.  A plain module (not a conftest) so the CI checks can import it
with this directory on ``sys.path``.
"""

import numpy as np

from repro.hw import cycle_sim
from repro.hw.allocator import allocate_mac_lines_batched

__all__ = ["scan_walk"]


def scan_walk(sim, model, columns):
    """Walk ``columns`` on ``model`` by grouped scans; ``(per_layer, jobs)``.

    ``per_layer`` maps each walk field to a (points × layers) array, as
    ``CycleAccurateSimulator._walk`` returns it.  Points are walked
    grouped by their (MAC lines, bytes/cycle, AE ratio) triple, in
    sub-batches of ``cycle_sim._GRID_CELL_BUDGET`` cells.
    """
    cols = sim._resolve_grid_columns(columns)
    geometry = sim._grid_geometry(model)
    points = cols["points"]
    per_layer = {
        name: np.empty((points, geometry["layers"]))
        for name in cycle_sim._WALK_FIELDS
    }
    per_layer["softmax_busy"][:] = geometry["sm_total"]
    if not points:
        return per_layer, geometry["jobs"]

    d_lines, s_lines = allocate_mac_lines_batched(
        cols["lines"][:, None], geometry["denser_macs"],
        geometry["sparser_macs"]
    )
    alloc = {
        "d_lines": np.maximum(d_lines, 1),
        "s_lines": np.maximum(s_lines, 1),
    }

    order = np.lexsort(
        (cols["act_buffer"], cols["ratio"], cols["bpc"], cols["lines"])
    )
    key = np.stack([cols["lines"][order], cols["bpc"][order],
                    cols["ratio"][order]])
    cuts = np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1
    starts = np.concatenate(([0], cuts))
    stops = np.concatenate((cuts, [points]))
    cells = sum(band["pad"].size for band in geometry["compute_bands"])
    step = max(1, cycle_sim._GRID_CELL_BUDGET // max(cells, 1))
    line_cache = {}
    for ga, gb in zip(starts.tolist(), stops.tolist()):
        shared = _group_tables(sim, geometry, cols, alloc, order[ga],
                               line_cache)
        for start in range(ga, gb, step):
            idx = order[start:min(start + step, gb)]
            _walk_group(sim, geometry, cols, shared, idx, per_layer)
    return per_layer, geometry["jobs"]


def _group_tables(sim, geometry, cols, alloc, rep, line_cache):
    """Scan tables shared by one (MAC lines, bytes/cycle, AE) group.

    Duration tables depend only on the MAC-line count, so they are cached
    per count; the request-ladder running max ``M = maximum.accumulate(
    step * (j + 1) - offset_j)`` is built per group (``-inf`` in padded
    slots).
    """
    g = geometry
    lines_key = int(cols["lines"][rep])
    tables = line_cache.get(lines_key)
    if tables is None:
        tables = []
        d_row = alloc["d_lines"][rep]
        s_row = alloc["s_lines"][rep]
        for band in g["compute_bands"]:
            layer_idx = band["layer"]
            eng_lines = np.where(
                band["is_d"], d_row[layer_idx], s_row[layer_idx]
            )
            durations = (
                -(-band["pad"].astype(np.int64) // eng_lines[:, None])
                * g["per_wave"][layer_idx][:, None]
            ).astype(np.float64)
            total = np.cumsum(durations, axis=-1)
            tables.append({
                "total": total,
                "offset": total - durations,
                "busy": durations.sum(axis=-1),
                "last": total[:, -1],
                "addend": total - band["sm_off"],
            })
        line_cache[lines_key] = tables

    bpc = cols["bpc"][rep]
    ratio = cols["ratio"][rep]
    step_vec = sim._grid_service(np.trunc(g["k_bytes_full"] * ratio), bpc)
    bands = []
    for band, t in zip(g["compute_bands"], tables):
        width = band["pad"].shape[1]
        h = step_vec[band["layer"]][:, None] * np.arange(1, width + 1)
        h -= t["offset"]
        h[np.isneginf(band["pad_floor"])] = -np.inf  # padded job slots
        bands.append({**t, "M": np.maximum.accumulate(h, axis=-1)})
    return bands


def _walk_group(sim, geometry, cols, shared, idx, per_layer):
    """One design-point sub-batch within a group: writes rows ``idx``.

    A row's job completions are ``total_j + max(base + M_j, 0)``; each
    softmax queue's final completion is ``S_total + max(0, max_j(
    max(base + M_j, 0) + addend_j))``, broadcast over the points.
    """
    g = geometry
    L = g["layers"]
    p = idx.size
    bpc = cols["bpc"][idx][:, None]
    act_buffer = cols["act_buffer"][idx][:, None]
    ratio = cols["ratio"][idx][:, None]
    lines = cols["lines"][idx][:, None]

    k_col_bytes = np.trunc(g["k_bytes_full"] * ratio)
    k_tiles = np.maximum(
        1.0, np.ceil(g["tensor_bytes"] * ratio / (act_buffer / 2))
    )
    q_stream = np.trunc(g["tensor_bytes"] * ratio * k_tiles)
    q_service = sim._grid_service(q_stream, bpc)
    s_col = sim._grid_service(k_col_bytes, bpc)
    v_service = sim._grid_service(2 * g["tensor_bytes"], bpc)

    spmm_compute = np.ceil(g["total_nnz"] / lines) * g["per_wave"]

    t_denser = np.zeros((p, L))
    t_sparser = np.zeros((p, L))
    denser_busy = np.zeros((p, L))
    sparser_busy = np.zeros((p, L))
    md = np.full((p, L), -np.inf)
    ms = np.full((p, L), -np.inf)
    for band, t in zip(g["compute_bands"], shared):
        layer_idx = band["layer"]
        is_d = band["is_d"]
        base = np.where(
            is_d,
            q_service[:, layer_idx],
            q_service[:, layer_idx]
            + s_col[:, layer_idx] * g["n_d"][layer_idx],
        )
        buf = base[:, :, None] + t["M"]
        np.maximum(buf, 0.0, out=buf)
        finish = buf[:, :, -1] + t["last"]
        d_rows = np.flatnonzero(is_d)
        s_rows = np.flatnonzero(~is_d)
        t_denser[:, layer_idx[d_rows]] = finish[:, d_rows]
        t_sparser[:, layer_idx[s_rows]] = finish[:, s_rows]
        denser_busy[:, layer_idx[d_rows]] = t["busy"][d_rows]
        sparser_busy[:, layer_idx[s_rows]] = t["busy"][s_rows]
        buf += t["addend"]
        band_max = buf.max(axis=-1)
        md[:, layer_idx[d_rows]] = band_max[:, d_rows]
        ms[:, layer_idx[s_rows]] = band_max[:, s_rows]
    sm_free = g["sm_total"] + np.maximum(np.maximum(md, ms), 0.0)

    sddmm_done = np.maximum(np.maximum(t_denser, t_sparser), sm_free)
    dram_free = q_service + s_col * (g["n_d"] + g["n_s"])
    v_done = np.maximum(sddmm_done, dram_free) + v_service
    spmm_done = np.maximum(sddmm_done + spmm_compute, v_done)

    per_layer["makespan"][idx] = spmm_done
    per_layer["sddmm_makespan"][idx] = sddmm_done
    per_layer["spmm_makespan"][idx] = spmm_done - sddmm_done
    per_layer["denser_busy"][idx] = denser_busy
    per_layer["sparser_busy"][idx] = sparser_busy
    per_layer["dram_busy"][idx] = dram_free + v_service
