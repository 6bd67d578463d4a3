"""Local completions endpoint for the record-resume workload.

Answers ``POST /v1/completions`` from tables that map the sha256 of a
prompt to ``[text, finish_reason]``, after a fixed service delay of
``DELAY_S``, and counts every completion request it receives; ``GET /calls``
returns ``{"calls": n}``. Unknown prompts get HTTP 404. Each response goes out in
a single write on a socket with TCP_NODELAY set, so no delayed-ACK stall
is charged to the client.

Usage: python3 bench/stub.py TABLE.json [TABLE.json ...]
Binds 127.0.0.1 on an ephemeral port, prints the port on its first stdout
line, and serves until terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_S = 0.005  # the record-resume baseline is measured at this service delay


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def _send(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {code} {self.responses[code][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        server = self.server
        with server.lock:
            server.calls += 1
        prompt = json.loads(body)["prompt"]
        entry = server.table.get(hashlib.sha256(prompt.encode("utf-8")).hexdigest())
        time.sleep(server.delay_s)
        if entry is None:
            self._send(404, {"error": "unknown prompt"})
            return
        text, finish = entry
        self._send(200, {"choices": [{"text": text, "finish_reason": finish}]})

    def do_GET(self) -> None:
        if self.path != "/calls":
            self._send(404, {"error": "unknown path"})
            return
        with self.server.lock:
            calls = self.server.calls
        self._send(200, {"calls": calls})

    def log_message(self, format, *args) -> None:
        pass


def make_server(table: dict, delay_s: float = DELAY_S) -> ThreadingHTTPServer:
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.table = table
    server.delay_s = delay_s
    server.calls = 0
    server.lock = threading.Lock()
    return server


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tables", nargs="+")
    args = parser.parse_args()
    table: dict = {}
    for path in args.tables:
        with open(path, encoding="utf-8") as fh:
            table.update(json.load(fh))
    server = make_server(table)
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
