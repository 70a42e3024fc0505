"""Loopback chat-completions mock for the comment-remote workload.

It answers the three turns of `comments.generate_comment_llm` (draft,
review, revise) with scripted replies. The revise reply is two sentences
built from the function's code, so a client that mixes up records or does
not trim to one sentence is caught. The server sleeps a fixed service
delay per request and answers HTTP 500 on every k-th chat request.
`GET /stats` reports what the server saw.

Run as a script it binds 127.0.0.1 on an ephemeral port, prints
`port <n>` on one line and serves until terminated, with a service delay
of `DELAY_MS` and a 500 on every `FAIL_EVERY`-th request:

    python3 perfbench/mock_chat.py
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# The service time dominates the client's own overhead, as a real
# endpoint's would.
DELAY_MS = 20
# A record makes three requests, so one 500 in 10 requests gives a retry
# to 3 records in 10: p50 falls among records without a retry and p90
# among those with one, never on the boundary between them.
FAIL_EVERY = 10


def final_sentence(code):
    """The one sentence a correct client keeps from the revise reply."""
    tokens = code.split()
    name = tokens[1] if len(tokens) > 1 else "anonymous"
    return (f"Function {name} copies src into buf and clears "
            f"{len(tokens)} tokens.")


def _code_of(messages):
    prompt = messages[1]["content"]
    return prompt.split("<code>\n", 1)[1].rsplit("\n</code>", 1)[0]


class MockChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delay_s=0.0, fail_every=0, wrong_final=False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.delay_s = delay_s
        self.fail_every = fail_every
        self.wrong_final = wrong_final
        self.lock = threading.Lock()
        self.chat_requests = 0
        self.failures = 0
        self.connections = 0
        self.stats_requests = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    @property
    def url(self):
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def stats(self):
        with self.lock:
            return {"chat_requests": self.chat_requests,
                    "failures": self.failures,
                    # each stats request opens a connection of its own
                    "chat_connections": self.connections - self.stats_requests}


class _Handler(BaseHTTPRequestHandler):
    # keep-alive capable, so a client that reuses connections shows it
    protocol_version = "HTTP/1.1"

    def _send_json(self, obj, status=200):
        payload = json.dumps(obj).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):
        srv = self.server
        with srv.lock:
            srv.stats_requests += 1
        self._send_json(srv.stats())

    def do_POST(self):
        srv = self.server
        length = int(self.headers.get("Content-Length", 0))
        messages = json.loads(self.rfile.read(length))["messages"]
        with srv.lock:
            srv.chat_requests += 1
            fail = srv.fail_every > 0 and \
                srv.chat_requests % srv.fail_every == 0
            if fail:
                srv.failures += 1
        if srv.delay_s:
            time.sleep(srv.delay_s)
        if fail:
            self.send_response(500)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        turn = len(messages)  # 2: draft, 4: review, 6: revise
        if turn <= 2:
            content = "Draft: the function copies src into buf."
        elif turn <= 4:
            content = "- No speculative claims.\n- Main data flow covered."
        else:
            final = final_sentence(_code_of(messages))
            if srv.wrong_final:
                final = "Function wrong does something else."
            content = final + " This second sentence must be dropped."
        self._send_json({"choices": [{"message": {
            "role": "assistant", "content": content}}]})

    def log_message(self, *args):
        pass


def main():
    server = MockChatServer(DELAY_MS / 1000.0, FAIL_EVERY)
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
