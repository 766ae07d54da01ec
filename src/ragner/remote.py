"""JSON over HTTP POST with the retry policy both remote backends share.

`urllib.request` is imported on the first post, so the mock backends and
precomputed embeddings never load it.
"""

from __future__ import annotations

import json
import time

from .errors import RagnerError


def post_json(
    url: str,
    body: dict,
    timeout: float,
    max_retries: int,
    error: type[RagnerError],
    timeout_error: type[RagnerError] | None = None,
    format_error: type[RagnerError] | None = None,
) -> tuple[object, int]:
    """POST `body` as JSON; returns (decoded reply, attempts made).

    Connection failures, timeouts, 429 and 5xx are retried after 0.1, 0.2,
    0.4 ... s (at most 2 s). Once retries are used up, the last failure is
    raised: `timeout_error` for a timeout, else `error`. Another 4xx raises
    `error` and a non-JSON body `format_error` at once; both default to
    `error`.
    """
    import http.client
    import urllib.error
    import urllib.request

    try:
        request = urllib.request.Request(
            url, data=json.dumps(body).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"},
        )
    except ValueError as exc:  # no URL scheme
        raise error(f"{url}: {exc}") from exc
    last: RagnerError | None = None
    for attempt in range(max(max_retries, 0) + 1):
        if attempt:
            time.sleep(min(0.1 * 2 ** (attempt - 1), 2.0))
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            last = error(f"{url}: HTTP {exc.code} {exc.reason}")
            if exc.code != 429 and exc.code < 500:
                raise last from exc
        except (OSError, http.client.HTTPException) as exc:
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                last = (timeout_error or error)(f"{url}: no answer within {timeout}s")
            else:
                last = error(f"{url}: connection failed: {exc}")
        else:
            try:
                return json.loads(raw), attempt + 1
            except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
                raise (format_error or error)(f"{url}: non-JSON response: {exc}") from exc
    raise last
