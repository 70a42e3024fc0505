"""Local chat-completions mock used by the commenter tests. No real
network access: the server binds to 127.0.0.1 on an ephemeral port."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockChatServer:
    """Serves scripted assistant replies and can inject failures.

    responses: list of strings returned (in order) as assistant content.
    fail_times: number of leading requests answered with `fail_status`.
    fail_status: HTTP status of those failures (500 by default).
    fail_headers: headers sent with each of those failures.
    raw_body: bytes sent as the body of every HTTP 200 reply in place of a
        well-formed chat-completions payload.
    delay_s: seconds each request waits before it is answered.
    reject_marker: a request whose messages hold this text is answered
        with HTTP 400.

    `peak_in_flight` is the most requests the server was answering at once.
    """

    def __init__(self, responses, fail_times=0, fail_status=500,
                 fail_headers=None, raw_body=None, delay_s=0.0,
                 reject_marker=None):
        self.responses = list(responses)
        self.fail_times = fail_times
        self.fail_status = fail_status
        self.fail_headers = dict(fail_headers or {})
        self.raw_body = raw_body
        self.delay_s = delay_s
        self.reject_marker = reject_marker
        self.requests = []
        self.in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                with outer._lock:
                    outer.in_flight += 1
                    outer.peak_in_flight = max(outer.peak_in_flight,
                                               outer.in_flight)
                try:
                    # tests that record the client's sleeps patch
                    # time.sleep, so it is called only when asked for
                    if outer.delay_s:
                        time.sleep(outer.delay_s)
                    self._answer()
                finally:
                    with outer._lock:
                        outer.in_flight -= 1

            def _fail(self, status, headers):
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()

            def _answer(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests.append({
                        "body": body,
                        "headers": dict(self.headers),
                    })
                    if outer.reject_marker is not None and any(
                            outer.reject_marker in m["content"]
                            for m in body["messages"]):
                        self._fail(400, {})
                        return
                    if outer.fail_times > 0:
                        outer.fail_times -= 1
                        self._fail(outer.fail_status, outer.fail_headers)
                        return
                    if outer.raw_body is not None:
                        payload = outer.raw_body
                    else:
                        content = outer.responses[outer._served]
                        outer._served = min(outer._served + 1,
                                            len(outer.responses) - 1)
                        payload = json.dumps({
                            "choices": [{"message": {"role": "assistant",
                                                     "content": content}}]
                        }).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._served = 0
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll interval, so that shutdown() returns promptly
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01},
                                       daemon=True)

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()
