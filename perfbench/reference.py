"""DuckDB reference for the streaming workloads, compared by row hash.

The whole-stream reference is ``match_sql`` run over every two-batch
slice ``[b, b + 1]``: a match spans at most the pattern window, which is
one batch, so every match whose earliest event lies in batch ``b`` is
inside that slice. Rows are kept only when their earliest event lies in
``b``, so no match is counted twice.

DuckDB's join-order optimizer is switched off, so the joins run in the
pattern's own type order, where every step carries the chain predicates.
With the optimizer on, DuckDB ends the plan with a nested-loop join and a
single scale-3 slice takes a minute instead of a third of a second. The
query text is unchanged.

Rows are reduced to 64-bit DuckDB hashes, computed the same way for the
reference and for the operator's output, and compared inside DuckDB, so
no match set is held in Python. A reference is cached as parquet under
the content hash of its input and query.
"""
from __future__ import annotations

import hashlib
import os

import duckdb
import pandas as pd


class Reference:
    """The whole-stream reference of one stream, in table ``ref(hash,
    batch, within)``: ``batch`` is the batch of the match's earliest
    event, ``within`` says all its events lie in that batch."""

    def __init__(self, columns: list[str], ts_columns: list[str], window: float):
        self.con = duckdb.connect()
        self.con.execute("SET disabled_optimizers = 'join_order'")
        self.hash = "hash(" + ", ".join(f'"{c}"' for c in columns) + ")"
        self.first = f"least({', '.join(ts_columns)})"
        self.last = f"greatest({', '.join(ts_columns)})"
        self.columns = columns
        self.window = window
        self.cached = False

    def close(self) -> None:
        self.con.close()

    def build(self, batches: list[pd.DataFrame], sql: str, cache_dir: str, content_key: str) -> int:
        """Fill ``ref`` from ``batches[b]`` (the events of batch ``b``), or
        from the cache; return its row count."""
        key = hashlib.sha256((content_key + "\0" + sql).encode()).hexdigest()[:24]
        path = os.path.join(cache_dir, f"ref-{key}.parquet")
        self.cached = os.path.exists(path)
        if self.cached:
            self.con.execute(f"CREATE TABLE ref AS SELECT * FROM read_parquet('{path}')")
        else:
            self.con.execute("CREATE TABLE ref (hash UBIGINT, batch BIGINT, within BOOLEAN)")
            for b in range(len(batches)):
                self.con.register("events", pd.concat(batches[b : b + 2], ignore_index=True))
                hi = (b + 1) * self.window
                self.con.execute(
                    f"INSERT INTO ref SELECT {self.hash}, {b}, {self.last} < {hi} "
                    f"FROM ({sql}) WHERE {self.first} < {hi}"
                )
                self.con.unregister("events")
            os.makedirs(cache_dir, exist_ok=True)
            tmp = f"{path}.{os.getpid()}.tmp"
            self.con.execute(f"COPY ref TO '{tmp}' (FORMAT PARQUET)")
            os.replace(tmp, path)
        return self.con.execute("SELECT count(*) FROM ref").fetchone()[0]

    def check(self, matches: pd.DataFrame, n_batches: int) -> tuple[list[bool], dict[int, tuple[int, int]]]:
        """Compare the ``matches`` emitted for batches ``0..n_batches-1``
        with the reference. Returns the failure flag of each batch and,
        per batch, ``(reference matches, distinct ones emitted)``. Batch
        ``b`` fails when it emitted a match that is not in the reference
        or emitted one twice, or missed a reference match whose events
        all lie in ``b``."""
        self.con.execute("CREATE OR REPLACE TABLE got (hash UBIGINT, batch BIGINT)")
        if len(matches):
            self.con.register("emitted", matches[self.columns])
            self.con.execute(
                f"INSERT INTO got SELECT {self.hash}, "
                f"CAST(floor({self.first} / {self.window}) AS BIGINT) FROM emitted"
            )
            self.con.unregister("emitted")
        bad = {
            min(max(b, 0), n_batches - 1)  # a match dated outside the range still fails
            for (b,) in self.con.execute(
                f"""
                SELECT batch FROM got GROUP BY batch, hash HAVING count(*) > 1
                UNION SELECT batch FROM got ANTI JOIN ref USING (hash)
                UNION SELECT batch FROM ref ANTI JOIN got USING (hash)
                      WHERE within AND batch < {n_batches}
                """
            ).fetchall()
        }
        per_batch = {
            b: (n, found)
            for b, n, found in self.con.execute(
                f"""
                SELECT r.batch, count(*), count(g.hash) FROM ref r
                LEFT JOIN (SELECT DISTINCT hash FROM got) g USING (hash)
                WHERE r.batch < {n_batches} GROUP BY r.batch
                """
            ).fetchall()
        }
        return [b in bad for b in range(n_batches)], per_batch
