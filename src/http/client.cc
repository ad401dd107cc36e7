#include "http/client.h"

#include "common/logging.h"

namespace ncache::http {

using netbuf::CopyClass;
using netbuf::MsgBuffer;

HttpClient::HttpClient(proto::NetworkStack& stack, proto::Ipv4Addr local_ip,
                       proto::Ipv4Addr server_ip, std::uint16_t server_port)
    : stack_(stack),
      local_ip_(local_ip),
      server_ip_(server_ip),
      server_port_(server_port) {}

Task<bool> HttpClient::connect() {
  // Socket setup cost on the client host.
  stack_.cpu().charge(stack_.costs().tcp_connection_ns);
  conn_ = co_await stack_.tcp_connect(local_ip_, server_ip_, server_port_);
  conn_->set_data_handler([this](MsgBuffer m) { on_data(std::move(m)); });
  co_return conn_->established();
}

void HttpClient::on_data(MsgBuffer m) {
  auto finish_response = [this] {
    in_body_ = false;
    Response r;
    r.status = status_;
    r.content_length = body_acc_.size();
    r.junk = body_acc_.has_junk() || body_acc_.has_keys();
    if (r.junk) {
      r.body = std::move(body_acc_);
    } else if (!body_acc_.empty()) {
      // Application copy-out, charged to the client CPU.
      r.body = stack_.copier().copy_message(body_acc_,
                                            CopyClass::RegularData);
    }
    body_acc_.clear();
    auto w = std::move(waiter_);
    waiter_ = nullptr;
    if (w) w(std::move(r));
  };

  while (!m.empty() || (in_body_ && body_need_ == 0)) {
    if (!in_body_) {
      // Headers are physical bytes; scan for the blank line.
      auto bytes = m.to_bytes();
      header_acc_.append(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size());
      std::size_t pos = header_acc_.find("\r\n\r\n");
      if (pos == std::string::npos) return;  // need more header bytes

      // Any bytes past the blank line belong to the body.
      std::size_t consumed_now = header_acc_.size() - (pos + 4);
      std::string head = header_acc_.substr(0, pos);
      header_acc_.clear();

      // Status line: HTTP/1.1 NNN ...
      status_ = 0;
      if (std::size_t sp = head.find(' '); sp != std::string::npos) {
        status_ = std::atoi(head.c_str() + sp + 1);
      }
      body_need_ = 0;
      // Content-Length header (case-sensitive; our server emits it).
      if (std::size_t cl = head.find("Content-Length: ");
          cl != std::string::npos) {
        body_need_ = std::strtoull(head.c_str() + cl + 16, nullptr, 10);
      }
      in_body_ = true;
      body_acc_.clear();
      // The rest of this chunk is body bytes.
      m.consume(m.size() - consumed_now);
      continue;
    }

    std::uint64_t take = std::min<std::uint64_t>(m.size(), body_need_);
    body_acc_.append(m.slice(0, take));
    m.consume(take);
    body_need_ -= take;
    if (body_need_ == 0) finish_response();
  }
}

Task<HttpClient::Response> HttpClient::read_response() {
  AwaitCallback<Response> awaiter([this](auto resolve) {
    auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
    waiter_ = [r](Response resp) { (*r)(std::move(resp)); };
  });
  co_return co_await awaiter;
}

Task<HttpClient::Response> HttpClient::get(std::string_view path) {
  if (per_request_conn_) {
    bool ok = co_await connect();
    if (!ok) {
      Response r;
      r.status = -1;
      co_return r;
    }
  }
  if (!connected()) {
    Response r;
    r.status = -1;
    co_return r;
  }
  ++stats_.requests;
  std::string req =
      "GET " + std::string(path) + " HTTP/1.1\r\nHost: server\r\nConnection: " +
      (per_request_conn_ ? "close" : "keep-alive") + "\r\n\r\n";
  conn_->send(stack_.copier().copy_bytes_in(as_bytes(req),
                                            CopyClass::Metadata));
  Response r = co_await read_response();
  if (per_request_conn_) {
    conn_->close();
    conn_.reset();
  }
  if (r.status == 200) {
    ++stats_.ok;
    stats_.body_bytes += r.content_length;
  } else {
    ++stats_.errors;
  }
  co_return r;
}

Task<int> HttpClient::get_discard(std::string_view path) {
  Response r = co_await get(path);
  co_return r.status;
}

}  // namespace ncache::http
