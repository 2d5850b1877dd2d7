// g++: 126
// g() and m::g() share a name; each call runs the one it names.
int g() { return 6; }
namespace m { int g() { return 12; } }
int main() {
  return m::g() * 10 + g();
}
