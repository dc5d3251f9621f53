#include "common/json.hpp"

#include <iomanip>
#include <sstream>

namespace griphon {

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
}

std::string json_quote(std::string_view s) {
  std::ostringstream os;
  os << '"';
  json_escape(os, s);
  os << '"';
  return os.str();
}

}  // namespace griphon
