#include "iscsi/pdu.h"

#include <stdexcept>

namespace ncache::iscsi {

std::vector<std::byte> Pdu::serialize_bhs() const {
  std::vector<std::byte> out;
  out.reserve(kBhsBytes);
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(opcode));
  w.u8(final_flag ? 0x80 : 0x00);  // flags
  w.u16(0);                        // opcode-specific flags (unused)
  w.u8(0);                         // total AHS length
  // 24-bit DataSegmentLength.
  auto dlen = std::uint32_t(data.size());
  w.u8(static_cast<std::uint8_t>(dlen >> 16));
  w.u16(static_cast<std::uint16_t>(dlen));
  w.u64(lun);
  w.u32(itt);
  w.u32(expected_length);
  w.u32(cmd_sn);
  w.u32(exp_sn);
  // Bytes 32-47 are opcode-specific, as in RFC 3720: the CDB for SCSI
  // commands, DataSN/BufferOffset/Status for data and response PDUs.
  if (opcode == Opcode::ScsiCommand) {
    for (std::uint8_t b : cdb) w.u8(b);
  } else {
    w.u32(data_sn);
    w.u32(buffer_offset);
    w.u8(static_cast<std::uint8_t>(status));
    w.zeros(7);
  }
  if (out.size() != kBhsBytes) {
    throw std::logic_error("Pdu::serialize_bhs: layout size mismatch");
  }
  return out;
}

Pdu Pdu::parse_bhs(std::span<const std::byte> bhs) {
  if (bhs.size() < kBhsBytes) {
    throw std::invalid_argument("Pdu::parse_bhs: short header");
  }
  ByteReader r(bhs.subspan(0, kBhsBytes));
  Pdu p;
  p.opcode = static_cast<Opcode>(r.u8());
  p.final_flag = (r.u8() & 0x80) != 0;
  r.u16();
  r.u8();
  std::uint32_t dlen = (std::uint32_t(r.u8()) << 16) | r.u16();
  p.lun = r.u64();
  p.itt = r.u32();
  p.expected_length = r.u32();
  p.cmd_sn = r.u32();
  p.exp_sn = r.u32();
  if (p.opcode == Opcode::ScsiCommand) {
    for (auto& b : p.cdb) b = r.u8();
  } else {
    p.data_sn = r.u32();
    p.buffer_offset = r.u32();
    p.status = static_cast<ScsiStatus>(r.u8());
    r.skip(7);
  }
  // Caller attaches the data segment; stash its expected size in
  // expected_length if needed. We return dlen via a convention:
  p.data = netbuf::MsgBuffer::junk(dlen);  // placeholder sized to dlen
  return p;
}

netbuf::MsgBuffer Pdu::to_stream() const {
  netbuf::MsgBuffer out = netbuf::MsgBuffer::from_bytes(serialize_bhs());
  std::size_t pad = data_padding();
  out.append(data);  // splice (shares buffers / keys)
  if (pad) {
    static const std::byte zeros[4] = {};
    out.append(netbuf::MsgBuffer::from_bytes({zeros, pad}));
  }
  return out;
}

std::array<std::uint8_t, 16> make_rw_cdb(const ScsiRw& rw) {
  std::array<std::uint8_t, 16> cdb{};
  cdb[0] = rw.is_write ? 0x2A : 0x28;
  cdb[2] = static_cast<std::uint8_t>(rw.lba >> 24);
  cdb[3] = static_cast<std::uint8_t>(rw.lba >> 16);
  cdb[4] = static_cast<std::uint8_t>(rw.lba >> 8);
  cdb[5] = static_cast<std::uint8_t>(rw.lba);
  cdb[7] = static_cast<std::uint8_t>(rw.blocks >> 8);
  cdb[8] = static_cast<std::uint8_t>(rw.blocks);
  return cdb;
}

std::optional<ScsiRw> parse_rw_cdb(const std::array<std::uint8_t, 16>& cdb) {
  if (cdb[0] != 0x28 && cdb[0] != 0x2A) return std::nullopt;
  ScsiRw rw;
  rw.is_write = cdb[0] == 0x2A;
  rw.lba = (std::uint32_t(cdb[2]) << 24) | (std::uint32_t(cdb[3]) << 16) |
           (std::uint32_t(cdb[4]) << 8) | cdb[5];
  rw.blocks = static_cast<std::uint16_t>((cdb[7] << 8) | cdb[8]);
  return rw;
}

void PduParser::feed(netbuf::MsgBuffer chunk,
                     const std::function<void(Pdu)>& sink) {
  pending_.append(std::move(chunk));
  while (pending_.size() >= need_) {
    if (!header_) {
      auto bhs = pending_.peek_bytes(kBhsBytes);
      Pdu p = Pdu::parse_bhs(bhs);
      std::size_t dlen = p.data.size();  // placeholder length from header
      std::size_t pad = (4 - (dlen & 3)) & 3;
      pending_.consume(kBhsBytes);
      header_ = std::move(p);
      need_ = dlen + pad;
      if (need_ == 0) {
        header_->data = {};
        Pdu done = std::move(*header_);
        header_.reset();
        need_ = kBhsBytes;
        sink(std::move(done));
      }
      continue;
    }
    // Data segment (+ pad) is available.
    std::size_t dlen = header_->data.size();
    header_->data = pending_.slice(0, dlen);
    pending_.consume(need_);
    Pdu done = std::move(*header_);
    header_.reset();
    need_ = kBhsBytes;
    sink(std::move(done));
  }
}

}  // namespace ncache::iscsi
