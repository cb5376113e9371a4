#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace pis {

namespace {
std::string BoolRepr(bool b) { return b ? "true" : "false"; }
}  // namespace

void FlagSet::AddInt(const std::string& name, int* target, const std::string& help) {
  flags_.push_back({name, Type::kInt, target, help, std::to_string(*target)});
}

void FlagSet::AddInt64(const std::string& name, int64_t* target,
                       const std::string& help) {
  flags_.push_back({name, Type::kInt64, target, help, std::to_string(*target)});
}

void FlagSet::AddDouble(const std::string& name, double* target,
                        const std::string& help) {
  flags_.push_back({name, Type::kDouble, target, help, std::to_string(*target)});
}

void FlagSet::AddBool(const std::string& name, bool* target, const std::string& help) {
  flags_.push_back({name, Type::kBool, target, help, BoolRepr(*target)});
}

void FlagSet::AddString(const std::string& name, std::string* target,
                        const std::string& help) {
  flags_.push_back({name, Type::kString, target, help, *target});
}

Status FlagSet::Apply(const Flag& flag, const std::string& value) const {
  switch (flag.type) {
    case Type::kInt: {
      char* end = nullptr;
      long v = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad int for --" + flag.name + ": " + value);
      }
      *static_cast<int*>(flag.target) = static_cast<int>(v);
      return Status::OK();
    }
    case Type::kInt64: {
      char* end = nullptr;
      long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad int64 for --" + flag.name + ": " + value);
      }
      *static_cast<int64_t*>(flag.target) = v;
      return Status::OK();
    }
    case Type::kDouble: {
      char* end = nullptr;
      double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad double for --" + flag.name + ": " + value);
      }
      *static_cast<double*>(flag.target) = v;
      return Status::OK();
    }
    case Type::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        return Status::InvalidArgument("bad bool for --" + flag.name + ": " + value);
      }
      return Status::OK();
    }
    case Type::kString:
      *static_cast<std::string*>(flag.target) = value;
      return Status::OK();
  }
  return Status::Internal("unreachable flag type");
}

Status FlagSet::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr, "%s", Usage(argv[0]).c_str());
      return Status::AlreadyExists("help requested");
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    const std::string name = body.substr(0, eq);
    const Flag* flag = nullptr;
    for (const auto& fl : flags_) {
      if (fl.name == name) flag = &fl;
    }
    // Unknown flags are rejected before any value is consumed, so a bare
    // unknown flag reads as unknown wherever it appears.
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    std::string value;
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
    } else if (flag->type == Type::kBool) {
      // Bool flags may appear bare ("--verbose"); others take the next token.
      value = "true";
    } else if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for --" + name);
    } else {
      value = argv[++i];
    }
    PIS_RETURN_NOT_OK(Apply(*flag, value));
  }
  return Status::OK();
}

std::string FlagSet::Usage(const std::string& program) const {
  std::string out = "Usage: " + program + " [flags]\n";
  for (const auto& flag : flags_) {
    out += "  --" + flag.name + " (default " + flag.default_repr + ")  " +
           flag.help + "\n";
  }
  return out;
}

}  // namespace pis
