"""The one client for the remote encoder and LLM: JSON over HTTP POST with
one retry policy, and one content-addressed on-disk JSON cache."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import tempfile
import time
import urllib.error
import urllib.request

from .errors import ProtocolError, RemoteError, UnavailableError

MAX_RETRIES = 3
BACKOFF = 0.5  # seconds before the first retry; doubles with every retry
TIMEOUT = 30.0  # seconds per request

sleep = time.sleep  # every backoff wait goes through this; tests replace it


def post_json(url: str, payload: dict, token: str | None) -> dict:
    """POST `payload` as JSON with bearer auth and return the reply's JSON object.
    HTTP 429, 5xx and connection failures are retried MAX_RETRIES times with
    doubling backoff, then raise UnavailableError; a Retry-After header in
    whole seconds lengthens a wait, never shortens it. Other HTTP errors raise
    RemoteError, and a reply that is not a JSON object raises ProtocolError."""
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers, method="POST")
    for attempt in range(MAX_RETRIES + 1):
        try:
            with urllib.request.urlopen(request, timeout=TIMEOUT) as resp:
                raw = resp.read()
            break
        except (OSError, http.client.HTTPException) as exc:
            status = exc.code if isinstance(exc, urllib.error.HTTPError) else None
            wait = BACKOFF * 2**attempt
            if status is not None:
                retry_after = (exc.headers.get("Retry-After") or "").strip()
                exc.close()  # an HTTPError holds the reply and its socket
                if status != 429 and not 500 <= status < 600:
                    raise RemoteError(f"{url} failed: HTTP {status}", status=status) from exc
                if retry_after.isdecimal():  # the HTTP-date form is ignored
                    wait = max(wait, int(retry_after))
            if attempt == MAX_RETRIES:
                raise UnavailableError(f"{url} unavailable: {exc}", status=status) from exc
        sleep(wait)
    try:
        reply = json.loads(raw)
    except ValueError as exc:
        raise ProtocolError(f"{url} replied with invalid JSON ({exc})") from exc
    if not isinstance(reply, dict):
        raise ProtocolError(f"{url} replied with a JSON {type(reply).__name__}, not an object")
    return reply


def _entry_path(cache_dir: str, key_parts: list[str]) -> str:
    key = hashlib.sha256("\n".join(key_parts).encode("utf-8")).hexdigest()
    return os.path.join(cache_dir, key + ".json")


def cache_get(cache_dir: str | None, key_parts: list[str]) -> dict | None:
    """The JSON object cached under `key_parts`, or None. No cache, no entry,
    and an entry that cannot be read as a JSON object are all misses."""
    if not cache_dir:
        return None
    try:
        with open(_entry_path(cache_dir, key_parts), encoding="utf-8") as fh:
            value = json.load(fh)
    except (OSError, ValueError):
        return None
    return value if isinstance(value, dict) else None


def cache_put(cache_dir: str | None, key_parts: list[str], value: dict) -> None:
    """Cache `value` under `key_parts` (no-op without a cache). The entry is
    written to a temporary file and renamed into place, so it is whole or absent."""
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    os.replace(tmp, _entry_path(cache_dir, key_parts))
