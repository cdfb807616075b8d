"""The one client for the remote encoder and LLM: JSON over HTTP POST with
one retry policy."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request

from .errors import InputError, RemoteError, UnavailableError

MAX_RETRIES = 3
BACKOFF = 0.5  # seconds before the first retry; doubles with every retry
TIMEOUT = 30.0  # seconds per request

sleep = time.sleep  # every backoff wait goes through this; tests replace it


def _check_request(url: str, token: str | None) -> None:
    """Raise InputError for a URL or token no request can carry: a URL that
    is not http(s)://host[:port]/... in visible ASCII, that holds a user
    name or password or that names port 0, or a token that is not printable
    ASCII. The message never shows a token or password."""
    try:
        parts = urllib.parse.urlsplit(url)
        if "@" in parts.netloc:  # urllib would send user:password@ as part of the host name
            raise InputError(f"the endpoint for {parts.hostname} holds a user name or password; pass a token instead")
        if parts.port == 0:  # .port raises ValueError unless the port is a number in [0, 65535]
            raise InputError(f"endpoint {url!r} names port 0, where no server listens")
    except ValueError as exc:
        raise InputError(f"endpoint {url!r} is not a valid URL ({exc})") from exc
    visible = url.isascii() and url.isprintable() and " " not in url
    if parts.scheme not in ("http", "https") or not parts.hostname or not visible:
        raise InputError(f"endpoint {url!r} is not an http(s)://host[:port]/path URL in visible ASCII")
    if token and not (token.isascii() and token.isprintable()):
        raise InputError(f"the bearer token for {url} holds a character that is not printable ASCII")


def post_json(url: str, payload: dict, token: str | None) -> dict:
    """POST `payload` as JSON with bearer auth and return the reply's JSON object.
    A malformed URL or token raises InputError before anything is sent.
    HTTP 429, 5xx and connection failures are retried MAX_RETRIES times with
    doubling backoff, then raise UnavailableError; a Retry-After header in
    whole seconds lengthens a wait, never shortens it. Other HTTP errors raise
    RemoteError, and so does a reply that is not a JSON object."""
    _check_request(url, token)
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
    except (ValueError, RecursionError) as exc:
        raise RemoteError(f"{url} replied with invalid JSON ({exc})") from exc
    if not isinstance(reply, dict):
        raise RemoteError(f"{url} replied with a JSON {type(reply).__name__}, not an object")
    return reply

