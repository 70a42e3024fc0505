"""Local chat-completions mock used by the commenter tests. No real
network access: the server binds to 127.0.0.1 on an ephemeral port."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class MockChatServer:
    """Serves scripted assistant replies and can inject failures.

    responses: list of strings returned (in order) as assistant content.
    fail_times: number of leading requests answered with `fail_status`.
    fail_status: HTTP status of those failures (500 by default).
    raw_body: bytes sent as the body of every HTTP 200 reply in place of a
        well-formed chat-completions payload.
    """

    def __init__(self, responses, fail_times=0, fail_status=500,
                 raw_body=None):
        self.responses = list(responses)
        self.fail_times = fail_times
        self.fail_status = fail_status
        self.raw_body = raw_body
        self.requests = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                with outer._lock:
                    outer.requests.append({
                        "body": body,
                        "headers": dict(self.headers),
                    })
                    if outer.fail_times > 0:
                        outer.fail_times -= 1
                        self.send_response(outer.fail_status)
                        self.end_headers()
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
