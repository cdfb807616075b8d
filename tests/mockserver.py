"""One local HTTP server for the tests of the remote encoder and LLM client."""

import contextlib
import http.server
import threading


class Handler(http.server.BaseHTTPRequestHandler):
    """A request handler that logs nothing; `reply` answers with a body."""

    def reply(self, body: bytes, status: int = 200) -> None:
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def serving(handler: type[http.server.BaseHTTPRequestHandler], path: str = "/"):
    """Serve `handler` on a free local port and yield the URL of `path`.

    The server checks for shutdown every 10 ms, so leaving the block does
    not wait out `serve_forever`'s default half-second poll.
    """
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True).start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}{path}"
    finally:
        server.shutdown()
        server.server_close()
